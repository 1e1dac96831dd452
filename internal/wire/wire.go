// Package wire is the fast serialization layer of the runtime's hot
// communication paths (the cheap data-item migration and fine-grained
// remote task spawning the application model depends on, Section 3.2).
//
// Every payload starts with a one-byte format tag:
//
//	0x00  gob: the remainder is a self-contained encoding/gob stream.
//	0x01  binary: a compact, length-prefixed little-endian form
//	      hand-written by the message type (Marshaler/Unmarshaler).
//
// Encode picks the binary form whenever the value implements
// Marshaler (the runtime RPC envelopes, scheduler task specs, task
// argument structs, DIM request/reply headers and fragment payloads
// do) or is a builtin (numeric.go: the numeric slice types, the
// scalar task results int64/uint64/string and the empty struct{} RPC
// body), and falls back to gob for everything else — so arbitrary
// user argument types keep working unchanged, they just do not get
// the fast path. The tag makes the choice self-describing: both forms
// of the same logical type decode identically on the receiver.
//
// The gob fallback costs a fresh stream per message — type
// descriptors sent, a decode engine compiled — which is tens of
// microseconds; nothing on the per-task path may take it.
// GobFallbacks counts every fallback so a test can hold that line
// (DESIGN.md §6a).
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
)

// Format tags: the first byte of every encoded payload.
const (
	// FormatGob marks a payload whose remainder is one gob stream.
	FormatGob byte = 0x00
	// FormatBinary marks a payload in the compact binary form.
	FormatBinary byte = 0x01
)

// Marshaler is implemented by message types with a hand-written
// binary wire form. AppendWire appends the form to buf and returns
// the extended slice (it must not retain buf).
type Marshaler interface {
	AppendWire(buf []byte) ([]byte, error)
}

// Unmarshaler is the decode side of Marshaler. UnmarshalWire reads
// the value's fields from d; it may rely on d's sticky error — Decode
// checks d.Err after it returns.
type Unmarshaler interface {
	UnmarshalWire(d *Decoder) error
}

// gobPool recycles the scratch buffers of the gob fallback; slicePool
// recycles the raw append buffers handed out by GetBuf (used for TCP
// frame assembly and other transient encodings).
var (
	gobPool   = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	slicePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
)

// GetBuf returns a pooled byte slice with length 0. Return it with
// PutBuf once its contents are no longer referenced.
func GetBuf() []byte {
	return (*slicePool.Get().(*[]byte))[:0]
}

// PutBuf returns a slice obtained from GetBuf (possibly grown by
// appends) to the pool. Oversized buffers are dropped so one huge
// frame does not pin memory forever.
func PutBuf(b []byte) {
	const maxPooled = 4 << 20
	if cap(b) == 0 || cap(b) > maxPooled {
		return
	}
	b = b[:0]
	slicePool.Put(&b)
}

// gobFallbacks counts the gob streams written by Encode and read by
// Decode since process start.
var gobFallbacks atomic.Uint64

// GobFallbacks returns the process-wide number of values that took
// the gob fallback, encodes plus decodes. A region of code is off the
// fallback exactly when the count does not move across it.
func GobFallbacks() uint64 { return gobFallbacks.Load() }

// Encode returns the wire form of v: binary when v implements
// Marshaler or is a builtin, gob otherwise. A nil v
// encodes as an empty payload (matching the previous per-package
// helpers, which treated nil as "no body").
func Encode(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	if m, ok := v.(Marshaler); ok {
		buf := make([]byte, 1, 128)
		buf[0] = FormatBinary
		return m.AppendWire(buf)
	}
	if buf, ok := encodeBuiltin(v); ok {
		return buf, nil
	}
	return encodeGob(v)
}

// Decode decodes a payload produced by Encode into v (a pointer). A
// nil v discards the payload; an empty payload is an error, as with
// the gob helpers this layer replaces.
func Decode(data []byte, v any) error {
	if v == nil {
		return nil
	}
	if len(data) == 0 {
		return fmt.Errorf("wire: empty payload")
	}
	format, body := data[0], data[1:]
	switch format {
	case FormatBinary:
		d := NewDecoder(body)
		if !decodeBuiltin(d, v) {
			u, ok := v.(Unmarshaler)
			if !ok {
				return fmt.Errorf("wire: binary payload for %T, which has no UnmarshalWire", v)
			}
			if err := u.UnmarshalWire(d); err != nil {
				return err
			}
		}
		// A payload is exactly one value: bytes left over mean the
		// sender and the receiver disagree about the type.
		if d.err == nil && len(d.data) != 0 {
			d.fail("%d trailing bytes after %T", len(d.data), v)
		}
		return d.err
	case FormatGob:
		gobFallbacks.Add(1)
		return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
	default:
		return fmt.Errorf("wire: unknown format tag 0x%02x", format)
	}
}

// encodeGob is the tagged gob fallback with a pooled scratch buffer:
// gob grows into the recycled buffer and only the final exactly-sized
// result allocates.
func encodeGob(v any) ([]byte, error) {
	gobFallbacks.Add(1)
	b := gobPool.Get().(*bytes.Buffer)
	b.Reset()
	b.WriteByte(FormatGob)
	if err := gob.NewEncoder(b).Encode(v); err != nil {
		gobPool.Put(b)
		return nil, err
	}
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	gobPool.Put(b)
	return out, nil
}
