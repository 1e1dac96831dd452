package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// readBufSize is the read buffer of one connection: one read fills
	// it with every frame the peer's flusher coalesced. A payload that
	// does not fit is read straight into its own slice instead.
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

// frameReader is the receive state of one connection. It does no I/O:
// the read loop fills space() and takes frames out with next until the
// next frame is incomplete.
type frameReader struct {
	buf   []byte // buf[r:w] holds bytes read and not yet parsed
	r, w  int
	kinds []string

	// A payload too large for buf: pay[:got] has arrived.
	pay     []byte
	got     int
	payFrom int
	payKind string
}

func newFrameReader() *frameReader {
	return &frameReader{buf: make([]byte, readBufSize)}
}

// space returns the slice the next read fills: the rest of a large
// payload, or the buffer's free end once the unparsed bytes are moved
// to its front.
func (r *frameReader) space() []byte {
	if r.pay != nil {
		return r.pay[r.got:]
	}
	if r.r == r.w && len(r.buf) > readBufSize {
		r.buf = make([]byte, readBufSize) // drop a buffer grown for one long kind
	}
	if r.r > 0 {
		r.w = copy(r.buf, r.buf[r.r:r.w])
		r.r = 0
	}
	return r.buf[r.w:]
}

// fill records that the last read put n bytes into space().
func (r *frameReader) fill(n int) {
	if r.pay != nil {
		r.got += n
	} else {
		r.w += n
	}
}

// eof is what a stream ending here means: io.EOF between frames,
// io.ErrUnexpectedEOF inside one.
func (r *frameReader) eof() error {
	if r.pay != nil || r.r < r.w {
		return io.ErrUnexpectedEOF
	}
	return io.EOF
}

// appendFrame appends the wire form of one frame to buf.
func appendFrame(buf []byte, from int, kind string, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(from))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(kind)))
	buf = append(buf, kind...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// next takes one frame — 4-byte big-endian sender rank, 4-byte kind
// length, kind, 4-byte payload length, payload — out of the bytes read
// so far; ok is false while it is incomplete. Each prefix is validated
// as soon as its 4 bytes are in, before anything is allocated for what
// it announces: an error wraps errCorruptFrame, and from is the sender
// once its rank passed. The payload is a fresh slice the caller owns.
func (r *frameReader) next(size, maxFrame int) (from int, kind string, payload []byte, ok bool, err error) {
	if r.pay != nil {
		if r.got < len(r.pay) {
			return -1, "", nil, false, nil
		}
		payload, r.pay = r.pay, nil
		return r.payFrom, r.payKind, payload, true, nil
	}
	b := r.buf[r.r:r.w]
	if len(b) < 4 {
		return -1, "", nil, false, nil
	}
	f := binary.BigEndian.Uint32(b)
	if int64(f) >= int64(size) {
		return -1, "", nil, false, fmt.Errorf("transport: %w: sender rank %d out of range", errCorruptFrame, f)
	}
	from = int(f)
	if len(b) < 8 {
		return -1, "", nil, false, nil
	}
	klen := binary.BigEndian.Uint32(b[4:])
	if int64(klen) > int64(maxFrame) {
		return from, "", nil, false, fmt.Errorf("transport: %w: kind length %d exceeds limit %d", errCorruptFrame, klen, maxFrame)
	}
	hdr := 12 + int(klen)
	if hdr > len(r.buf) { // a kind longer than the buffer: grow it for this frame
		r.buf = make([]byte, hdr)
		r.r, r.w = 0, copy(r.buf, b)
	}
	if len(b) < hdr {
		return -1, "", nil, false, nil
	}
	plen := binary.BigEndian.Uint32(b[hdr-4:])
	if int64(plen) > int64(maxFrame) {
		return from, "", nil, false, fmt.Errorf("transport: %w: payload length %d exceeds limit %d", errCorruptFrame, plen, maxFrame)
	}
	n := int(plen)
	if len(b)-hdr < n && hdr+n <= len(r.buf) {
		return -1, "", nil, false, nil // fits once the rest is read
	}
	kind = r.intern(b[8 : hdr-4])
	payload = make([]byte, n)
	got := copy(payload, b[hdr:])
	if got < n {
		r.r = r.w
		r.pay, r.got, r.payFrom, r.payKind = payload, got, from, kind
		return -1, "", nil, false, nil
	}
	r.r += hdr + n
	return from, kind, payload, true, nil
}

// intern returns the table's copy of a short kind (the comparison does
// not allocate); kinds beyond the caps are fresh strings.
func (r *frameReader) intern(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
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
