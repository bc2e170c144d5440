//go:build !linux

package af

// iovecs is empty where the exchange has no raw writev to feed.
type iovecs struct{}

// bindRaw leaves c.raw nil on platforms without the non-blocking read:
// every round trip writes with the blocking write, then reads with a
// blocking conn.Read holding its buffer, and a poll arms a read deadline,
// as on a transport with no RawConn.
func (c *Conn) bindRaw() {}
