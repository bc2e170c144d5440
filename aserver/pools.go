package aserver

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pools for the hot path, which they keep allocation-free at steady
// state: a buffer is checked out for the life of one request or one
// queued message and returned once its bytes have moved on. Byte buffers
// — ingress, and a park's frame, which holds a compressed play's
// decompression too — come from the wire layer's one pool
// (proto.GetBuffer).
//
// The pool holds pointers rather than values so checkout/checkin does
// not itself allocate a box per operation.
var msgPool = sync.Pool{New: func() any { return new(wireMsg) }}

// wireMsg is one pooled outgoing wire message. Unicast replies, errors,
// and events are checked out with one reference and released by the
// writer after the bytes reach the kernel — the historical lifecycle.
// Broadcast fan-out shares one message across N subscriber queues:
// the channel pump retains N-1 extra references before enqueueing, each
// subscriber's writer (or teardown sweep) releases one, and the last
// release returns the buffer to the pool. The payload bytes are
// immutable from the moment the message is enqueued anywhere.
//
// owner is a static tag naming the checkout site; it travels with the
// message so a double release (a sharing bug that would otherwise
// surface as silent pool corruption — two clients writev-ing the same
// buffer while a third path reuses it) panics with context instead.
type wireMsg struct {
	buf   []byte
	refs  atomic.Int32
	owner string
}

// retain adds n references; the caller already holds at least one, so
// the count can never be observed at zero while retaining.
func (m *wireMsg) retain(n int32) {
	if n > 0 {
		m.refs.Add(n)
	}
}

// release drops one reference; the last one returns the message to the
// pool. Releasing more times than the message was retained is a
// refcounting bug in the caller, not a recoverable condition: the buffer
// may already be carrying someone else's bytes, so corruption is certain
// and we crash loudly with the checkout site instead.
func (m *wireMsg) release() {
	switch n := m.refs.Add(-1); {
	case n == 0:
		msgPool.Put(m)
	case n < 0:
		panic(fmt.Sprintf("aserver: wireMsg double release (owner %q, refs %d)", m.owner, n))
	}
}

// getMsg checks out an empty wire message holding one reference, tagged
// with the checkout site for the double-release guard. The reference is
// consumed by whoever writes the message out (or a failed send) via
// release.
func getMsg(owner string) *wireMsg {
	m := msgPool.Get().(*wireMsg)
	m.buf = m.buf[:0]
	m.refs.Store(1)
	m.owner = owner
	return m
}

// msgBytes grows a checked-out message buffer to exactly n bytes and
// returns it. The record path sizes its reply message up front and lets
// the device convert samples straight into the payload region.
func msgBytes(m *wireMsg, n int) []byte {
	if cap(m.buf) < n {
		m.buf = make([]byte, n)
	}
	m.buf = m.buf[:n]
	return m.buf
}
