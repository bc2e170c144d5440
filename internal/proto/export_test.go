package proto

import (
	"encoding/binary"
	"io"
)

// ReadMessage reads the next server-to-client message from the stream into
// a fresh Message, for tests that keep each message past the next read.
func ReadMessage(rd io.Reader, order binary.ByteOrder) (*Message, error) {
	m := new(Message)
	if err := ReadMessageInto(rd, order, m); err != nil {
		return nil, err
	}
	return m, nil
}
