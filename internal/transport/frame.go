package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// readBufSize is the read buffer of one accepted connection. One
	// successful read(2) fills it with every frame the peer's flusher
	// coalesced, so a wake-up costs one syscall however many frames it
	// delivers. Payloads at least this large bypass it: bufio reads them
	// straight into the payload slice.
	readBufSize = 16 << 10
	// maxInternKinds and maxInternLen cap the per-connection kind table:
	// the runtime multiplexes a handful of short kinds over a connection,
	// and a peer must not be able to grow the table without bound.
	maxInternKinds = 16
	maxInternLen   = 64
)

// errCorruptFrame marks frames rejected by validation (sender rank out
// of range, length prefix beyond MaxFrame) as opposed to I/O errors;
// the read loop counts the former in dropped_frames.
var errCorruptFrame = errors.New("corrupt frame")

// frameReader is the receive state of one accepted connection: the
// buffered reader frames are parsed out of, and the table kind strings
// are interned from.
type frameReader struct {
	br    *bufio.Reader
	kinds []string
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufSize)}
}

// midFrame turns an end of stream inside a frame into
// io.ErrUnexpectedEOF, leaving io.EOF to mean "closed between frames".
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (r *frameReader) u32() (uint32, error) {
	b, err := r.br.Peek(4)
	if err != nil {
		if len(b) > 0 {
			err = midFrame(err)
		}
		return 0, err
	}
	v := binary.BigEndian.Uint32(b)
	r.br.Discard(4)
	return v, nil
}

// kind reads an n-byte kind string. Short kinds are matched in place
// against the interning table (the comparison does not allocate), so a
// connection's steady state allocates no kind strings at all; kinds
// beyond the caps are delivered as fresh strings.
func (r *frameReader) kind(n int) (string, error) {
	if n > maxInternLen {
		b := make([]byte, n)
		if _, err := io.ReadFull(r.br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	b, err := r.br.Peek(n)
	if err != nil {
		return "", err
	}
	k := r.intern(b)
	r.br.Discard(n)
	return k, nil
}

func (r *frameReader) intern(b []byte) string {
	for _, k := range r.kinds {
		if k == string(b) {
			return k
		}
	}
	k := string(b)
	if len(r.kinds) < maxInternKinds {
		r.kinds = append(r.kinds, k)
	}
	return k
}

// appendFrame appends the wire form of one frame to buf.
func appendFrame(buf []byte, from int, kind string, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(from))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(kind)))
	buf = append(buf, kind...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// readFrame parses one frame — 4-byte big-endian sender rank, 4-byte
// kind length, kind, 4-byte payload length, payload — validating each
// prefix before anything is allocated for it. The payload is a fresh
// slice owned by the caller. from is -1 unless a valid sender rank was
// read and the frame was then rejected or delivered. Errors wrapping
// errCorruptFrame are validation failures; io.EOF means the stream
// ended between frames.
func readFrame(r *frameReader, size, maxFrame int) (from int, kind string, payload []byte, err error) {
	f, err := r.u32()
	if err != nil {
		return -1, "", nil, err
	}
	if int64(f) >= int64(size) {
		return -1, "", nil, fmt.Errorf("transport: %w: sender rank %d out of range", errCorruptFrame, f)
	}
	klen, err := r.u32()
	if err != nil {
		return -1, "", nil, midFrame(err)
	}
	if int64(klen) > int64(maxFrame) {
		return int(f), "", nil, fmt.Errorf("transport: %w: kind length %d exceeds limit %d", errCorruptFrame, klen, maxFrame)
	}
	if kind, err = r.kind(int(klen)); err != nil {
		return -1, "", nil, midFrame(err)
	}
	plen, err := r.u32()
	if err != nil {
		return -1, "", nil, midFrame(err)
	}
	if int64(plen) > int64(maxFrame) {
		return int(f), "", nil, fmt.Errorf("transport: %w: payload length %d exceeds limit %d", errCorruptFrame, plen, maxFrame)
	}
	payload = make([]byte, plen)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return -1, "", nil, midFrame(err)
	}
	return int(f), kind, payload, nil
}
