// Package sndfile reads and writes the sound file formats the AudioFile
// clients handle: raw sample data (all aplay handled in 1993), plus the
// Sun/NeXT .au and Microsoft RIFF/WAVE self-describing formats the paper
// lists as a desirable extension ("it would be appropriate to extend
// aplay to handle a variety of popular sound file formats").
package sndfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"audiofile/internal/sampleconv"
)

// Info describes decoded sound data.
type Info struct {
	Encoding sampleconv.Encoding
	Rate     int
	Channels int
}

// Sound is decoded sound data with its format. Data is in the native
// little-endian layout used throughout the system.
type Sound struct {
	Info
	Data []byte
}

// Frames returns the number of sample frames in the sound.
func (s *Sound) Frames() int {
	fb := s.Encoding.BytesPerSamples(1) * s.Channels
	if fb == 0 {
		return 0
	}
	return len(s.Data) / fb
}

// Duration returns the playing time in seconds.
func (s *Sound) Duration() float64 {
	if s.Rate == 0 {
		return 0
	}
	return float64(s.Frames()) / float64(s.Rate)
}

const (
	auMagic = 0x2e736e64 // ".snd"
	riffTag = 0x46464952 // "RIFF" little-endian
	waveTag = 0x45564157 // "WAVE"
	fmtTag  = 0x20746d66 // "fmt "
	dataTag = 0x61746164 // "data"
)

// AU encoding codes.
const (
	auMuLaw = 1
	auLin16 = 3
	auLin32 = 5
	auALaw  = 27
)

// WAVE format codes.
const (
	wavePCM   = 1
	waveALaw  = 6
	waveMuLaw = 7
)

// ErrUnknownFormat reports data in no recognizable container.
var ErrUnknownFormat = errors.New("sndfile: unknown format")

// chunkPrealloc is what a chunk's size claim alone may allocate.
const chunkPrealloc = 512 << 10

// readChunk reads the n bytes a header says follow (n < 0: the rest of the
// stream). A size field is a claim: a chunk up to chunkPrealloc is one
// allocation, and past it the buffer doubles only once the stream has
// filled it, so a short stream is io.ErrUnexpectedEOF having cost
// chunkPrealloc or twice what it held, not a 4 GiB make.
func readChunk(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return io.ReadAll(r)
	}
	data := make([]byte, 0, min(n, chunkPrealloc))
	for int64(len(data)) < n {
		if len(data) == cap(data) {
			data = slices.Grow(data, int(min(n-int64(len(data)), int64(len(data)))))
		}
		end := int(min(n, int64(cap(data))))
		k, err := io.ReadFull(r, data[len(data):end])
		data = data[:len(data)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

// ReadAU decodes a Sun/NeXT .au stream.
func ReadAU(r io.Reader) (*Sound, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	be := binary.BigEndian
	if be.Uint32(hdr[0:]) != auMagic {
		return nil, ErrUnknownFormat
	}
	offset := be.Uint32(hdr[4:])
	size := be.Uint32(hdr[8:])
	encoding := be.Uint32(hdr[12:])
	rate := be.Uint32(hdr[16:])
	channels := be.Uint32(hdr[20:])
	if offset < 24 || channels == 0 || channels > 16 {
		return nil, fmt.Errorf("sndfile: bad AU header (offset %d, channels %d)", offset, channels)
	}
	if _, err := io.CopyN(io.Discard, r, int64(offset-24)); err != nil {
		return nil, err
	}
	n := int64(size)
	if size == 0xFFFFFFFF {
		n = -1 // unknown: to the end of the stream
	}
	data, err := readChunk(r, n)
	if err != nil {
		return nil, err
	}
	s := &Sound{Info: Info{Rate: int(rate), Channels: int(channels)}, Data: data}
	switch encoding {
	case auMuLaw:
		s.Encoding = sampleconv.MU255
	case auALaw:
		s.Encoding = sampleconv.ALAW
	case auLin16:
		s.Encoding = sampleconv.LIN16
		sampleconv.SwapBytes(sampleconv.LIN16, s.Data) // AU is big-endian
	case auLin32:
		s.Encoding = sampleconv.LIN32
		sampleconv.SwapBytes(sampleconv.LIN32, s.Data)
	default:
		return nil, fmt.Errorf("sndfile: unsupported AU encoding %d", encoding)
	}
	return s, nil
}

// WriteAU encodes a sound as a Sun/NeXT .au stream.
func WriteAU(w io.Writer, s *Sound) error {
	var enc uint32
	data := s.Data
	switch s.Encoding {
	case sampleconv.MU255:
		enc = auMuLaw
	case sampleconv.ALAW:
		enc = auALaw
	case sampleconv.LIN16:
		enc = auLin16
		data = append([]byte(nil), data...)
		sampleconv.SwapBytes(sampleconv.LIN16, data)
	case sampleconv.LIN32:
		enc = auLin32
		data = append([]byte(nil), data...)
		sampleconv.SwapBytes(sampleconv.LIN32, data)
	default:
		return fmt.Errorf("sndfile: cannot write encoding %v as AU", s.Encoding)
	}
	var hdr [24]byte
	be := binary.BigEndian
	be.PutUint32(hdr[0:], auMagic)
	be.PutUint32(hdr[4:], 24)
	be.PutUint32(hdr[8:], uint32(len(data)))
	be.PutUint32(hdr[12:], enc)
	be.PutUint32(hdr[16:], uint32(s.Rate))
	be.PutUint32(hdr[20:], uint32(s.Channels))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ReadWAV decodes a RIFF/WAVE stream (PCM, µ-law, or A-law).
func ReadWAV(r io.Reader) (*Sound, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if le.Uint32(hdr[0:]) != riffTag || le.Uint32(hdr[8:]) != waveTag {
		return nil, ErrUnknownFormat
	}
	var s *Sound
	var format, bits uint16
	for {
		var chunk [8]byte
		if _, err := io.ReadFull(r, chunk[:]); err != nil {
			if err == io.EOF && s != nil {
				break
			}
			return nil, err
		}
		tag := le.Uint32(chunk[0:])
		size := le.Uint32(chunk[4:])
		switch tag {
		case fmtTag:
			body, err := readChunk(r, int64(size))
			if err != nil {
				return nil, err
			}
			if size < 16 {
				return nil, fmt.Errorf("sndfile: short fmt chunk")
			}
			format = le.Uint16(body[0:])
			channels := le.Uint16(body[2:])
			rate := le.Uint32(body[4:])
			bits = le.Uint16(body[14:])
			s = &Sound{Info: Info{Rate: int(rate), Channels: int(channels)}}
		case dataTag:
			if s == nil {
				return nil, fmt.Errorf("sndfile: data chunk before fmt")
			}
			var err error
			if s.Data, err = readChunk(r, int64(size)); err != nil {
				return nil, err
			}
			switch {
			case format == wavePCM && bits == 16:
				s.Encoding = sampleconv.LIN16
			case format == wavePCM && bits == 32:
				s.Encoding = sampleconv.LIN32
			case format == waveMuLaw:
				s.Encoding = sampleconv.MU255
			case format == waveALaw:
				s.Encoding = sampleconv.ALAW
			default:
				return nil, fmt.Errorf("sndfile: unsupported WAVE format %d/%d bits", format, bits)
			}
			return s, nil
		default:
			// Skip unknown chunks (and their pad byte).
			if _, err := io.CopyN(io.Discard, r, int64(size+size%2)); err != nil {
				return nil, err
			}
		}
	}
	return nil, fmt.Errorf("sndfile: no data chunk")
}

// WriteWAV encodes a sound as a RIFF/WAVE stream.
func WriteWAV(w io.Writer, s *Sound) error {
	var format uint16
	var bits uint16
	switch s.Encoding {
	case sampleconv.MU255:
		format, bits = waveMuLaw, 8
	case sampleconv.ALAW:
		format, bits = waveALaw, 8
	case sampleconv.LIN16:
		format, bits = wavePCM, 16
	case sampleconv.LIN32:
		format, bits = wavePCM, 32
	default:
		return fmt.Errorf("sndfile: cannot write encoding %v as WAV", s.Encoding)
	}
	le := binary.LittleEndian
	blockAlign := int(bits) / 8 * s.Channels
	hdr := make([]byte, 44)
	le.PutUint32(hdr[0:], riffTag)
	le.PutUint32(hdr[4:], uint32(36+len(s.Data)))
	le.PutUint32(hdr[8:], waveTag)
	le.PutUint32(hdr[12:], fmtTag)
	le.PutUint32(hdr[16:], 16)
	le.PutUint16(hdr[20:], format)
	le.PutUint16(hdr[22:], uint16(s.Channels))
	le.PutUint32(hdr[24:], uint32(s.Rate))
	le.PutUint32(hdr[28:], uint32(s.Rate*blockAlign))
	le.PutUint16(hdr[32:], uint16(blockAlign))
	le.PutUint16(hdr[34:], bits)
	le.PutUint32(hdr[36:], dataTag)
	le.PutUint32(hdr[40:], uint32(len(s.Data)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(s.Data)
	return err
}

// Read sniffs the stream's magic and decodes AU or WAV; raw data is not
// sniffable and must be read directly.
func Read(r io.ReadSeeker) (*Sound, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	switch {
	case binary.BigEndian.Uint32(magic[:]) == auMagic:
		return ReadAU(r)
	case binary.LittleEndian.Uint32(magic[:]) == riffTag:
		return ReadWAV(r)
	}
	return nil, ErrUnknownFormat
}
