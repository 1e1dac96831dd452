package resilience

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/wire"
)

// Checkpoint file format (DESIGN.md §6a "Wire formats"):
//
//	magic   0xAC 'C' 'P' 0x01              (4 bytes; 0x01 = version)
//	body    uvarint locality count
//	        uvarint record count
//	        per record:
//	          uvarint item ID
//	          string  type name            (uvarint length + bytes)
//	          varint  rank
//	          region  (dataitem region wire form)
//	          bytes   fragment data        (uvarint length + bytes)
//	crc32   IEEE over magic+body           (4 bytes, big-endian)
//
// A file without the magic, truncated or corrupted fails cleanly —
// nothing is imported.

var checkpointMagic = [4]byte{0xAC, 'C', 'P', 0x01}

// WriteTo serializes the checkpoint in the framed binary form with a
// trailing CRC32.
func (cp *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	buf := append([]byte(nil), checkpointMagic[:]...)
	buf = wire.AppendUvarint(buf, uint64(cp.Localities))
	buf = wire.AppendUvarint(buf, uint64(len(cp.Records)))
	for _, rec := range cp.Records {
		buf = wire.AppendUvarint(buf, uint64(rec.Item))
		buf = wire.AppendString(buf, rec.TypeName)
		buf = wire.AppendVarint(buf, int64(rec.Rank))
		var err error
		if buf, err = dataitem.AppendRegionWire(buf, rec.Snapshot.Region); err != nil {
			return 0, fmt.Errorf("resilience: encode region of %v: %w", rec.Item, err)
		}
		buf = wire.AppendBytes(buf, rec.Snapshot.Data)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadCheckpoint deserializes a checkpoint written by WriteTo,
// verifying its magic and checksum. Corruption or truncation yields an
// error and no checkpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, checkpointMagic[:]) {
		return nil, fmt.Errorf("resilience: not a checkpoint (format magic missing)")
	}
	if len(data) < len(checkpointMagic)+4 {
		return nil, fmt.Errorf("resilience: checkpoint truncated (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("resilience: checkpoint checksum mismatch (%08x != %08x)", got, sum)
	}
	d := wire.NewDecoder(body[len(checkpointMagic):])
	cp := &Checkpoint{Localities: int(d.Uvarint())}
	n := int(d.Uvarint())
	for i := 0; i < n && d.Err() == nil; i++ {
		rec := FragmentRecord{
			Item:     dim.ItemID(d.Uvarint()),
			TypeName: d.String(),
			Rank:     d.Int(),
		}
		var err error
		if rec.Snapshot.Region, err = dataitem.DecodeRegionWire(d); err != nil {
			return nil, fmt.Errorf("resilience: decode region of record %d: %w", i, err)
		}
		rec.Snapshot.Data = append([]byte(nil), d.Bytes()...) // copied out of the input
		cp.Records = append(cp.Records, rec)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("resilience: decode checkpoint: %w", err)
	}
	if len(cp.Records) != n {
		return nil, fmt.Errorf("resilience: checkpoint holds %d of %d records", len(cp.Records), n)
	}
	return cp, nil
}
