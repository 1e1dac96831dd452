package resilience_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"allscale/internal/resilience"
)

// FuzzReadCheckpoint feeds the checkpoint reader — which reads bytes
// from a disk — arbitrary streams, each once as it is (the checksum
// refuses nearly all of them) and once with the checksum made right, so
// that the record decoder behind it sees the mutations too. A refused
// stream must yield an error and no partial checkpoint; an accepted one
// must survive a second round trip.
func FuzzReadCheckpoint(f *testing.F) {
	sys, _ := buildGridSystem(f)
	cp, err := resilience.Capture(sys, nil)
	sys.Close()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	for _, n := range []int{len(whole), len(whole) - 1, len(whole) - 4, len(whole) / 2, 40, 9, 8, 5, 4, 1, 0} {
		f.Add(whole[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		summed := binary.BigEndian.AppendUint32(append([]byte(nil), data...), crc32.ChecksumIEEE(data))
		for _, stream := range [][]byte{data, summed} {
			cp, err := resilience.ReadCheckpoint(bytes.NewReader(stream))
			if err != nil {
				if cp != nil {
					t.Fatalf("refused stream came with a partial checkpoint of %d records", len(cp.Records))
				}
				continue
			}
			var out bytes.Buffer
			if _, err := cp.WriteTo(&out); err != nil {
				t.Fatalf("accepted checkpoint does not encode: %v", err)
			}
			if _, err := resilience.ReadCheckpoint(&out); err != nil {
				t.Fatalf("accepted checkpoint does not survive a round trip: %v", err)
			}
		}
	})
}
