//go:build !race

package proto

import "testing"

// TestReplyCodecAllocs is the allocation gate of BenchmarkReplyEncode and
// BenchmarkReadReplies: the reply codec on both ends of the wire stages
// and parses a smallop cycle without allocating. Under -race the counts
// include the detector's own, so the gate runs without it.
func TestReplyCodecAllocs(t *testing.T) {
	for name, cycle := range map[string]func(){
		"ReplyEncode": replyEncode(t),
		"ReadReplies": readReplies(t),
	} {
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("%s: %v allocs per cycle, want 0", name, n)
		}
	}
}
