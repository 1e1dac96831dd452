package dim

import (
	"bytes"
	"reflect"
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/region"
	"allscale/internal/wire"
	"allscale/internal/wire/wiretest"
)

// wireForm is a DIM header with a hand-written binary form.
type wireForm interface {
	wire.Marshaler
	wire.Unmarshaler
}

// headerForms are the request/reply headers of the data movement
// services, one fresh value per call: what a write acquisition and a
// staging exchange with their peers.
var headerForms = []func() wireForm{
	func() wireForm { return new(dropArgs) },
	func() wireForm { return new(dropReply) },
	func() wireForm { return new(fetchArgs) },
	func() wireForm { return new(fetchReply) },
	func() wireForm { return new(unpinArgs) },
	func() wireForm { return new(claimArgs) },
	func() wireForm { return new(claimReply) },
}

func headerSeeds() []wireForm {
	row := dataitem.Region(gr(31, 1, 32, 63))
	tree := dataitem.Region(dataitem.TreeItemRegion{T: region.SubtreeRegion(5, 3)})
	const token = 1<<63 | 1<<48 | 7
	return []wireForm{
		&dropArgs{Item: MakeItemID(1, 0, 2), Region: row},
		&dropReply{},
		&dropReply{Contended: true},
		&dropReply{Root: row, Sharers: []Located{{Region: row, Rank: 3}, {Region: tree, Rank: 0}}},
		&dropReply{Sharers: []Located{{Region: row, Rank: 2}}, Kept: row, PinToken: token},
		&fetchArgs{Item: MakeItemID(0, 0, 1), Region: tree},
		&fetchReply{Empty: true},
		&fetchReply{Data: []byte{wire.FormatBinary, 1, 2, 3}, Part: row, PinToken: token},
		&unpinArgs{Token: token},
		&unpinArgs{Token: token, Data: bytes.Repeat([]byte{0x5a}, 62*8)},
		&unpinArgs{Token: token, Data: []byte{wire.FormatBinary, 1}, Read: true},
		&claimArgs{Item: MakeItemID(2, 0, 9), Region: row, Alloc: true},
		&claimArgs{Item: MakeItemID(2, 0, 9), Region: tree, Root: true},
		&claimReply{},
		&claimReply{Granted: row},
	}
}

// argForms are the request and reply forms of every service of the
// DIM, the recovery phases' among them: headerForms, then the rest.
var argForms = append(headerForms[:len(headerForms):len(headerForms)],
	func() wireForm { return new(destroyArgs) },
	func() wireForm { return new(reportArgs) },
	func() wireForm { return new(batchArgs) },
	func() wireForm { return new(batchReply) },
	func() wireForm { return new(retractArgs) },
	func() wireForm { return new(carryArgs) },
)

func argSeeds() []wireForm {
	row := dataitem.Region(gr(31, 1, 32, 63))
	tree := dataitem.Region(dataitem.TreeItemRegion{T: region.SubtreeRegion(5, 3)})
	return append(headerSeeds(),
		&destroyArgs{ID: MakeItemID(3, 0, 4)},
		// IDs no rank may make an item for: a creator past any system's
		// size, a type code nothing registers (itemLocked refuses both).
		&destroyArgs{ID: MakeItemID(0xffff, 0, 4)},
		&fetchArgs{Item: MakeItemID(0, 0xbeef, 3), Region: row},
		&reportArgs{Item: MakeItemID(0, 0, 1), Level: 3, Left: true, Region: row, Seq: 1<<32 | 7},
		&batchArgs{Reqs: []batchReq{
			{Item: MakeItemID(0, 0, 1), Region: row, Level: 2, Descend: true},
			{Item: MakeItemID(2, 0, 5), Region: tree, Level: 3, Descend: true, All: true},
		}},
		&batchReply{Replies: [][]Located{{{Region: row, Rank: 1}, {Region: tree, Rank: 3}}, nil}},
		&retractArgs{Epoch: 3},
		&carryArgs{Carried{Item: MakeItemID(1, 0, 2), Kept: row, Token: 1<<63 | 1<<48 | 7}, 3},
		&carryArgs{Carried{Item: MakeItemID(0, 0, 1), Kept: tree, Token: 1<<63 | 5}, 0},
	)
}

// kindOf is the index of seed's type in headerForms.
func kindOf(t testing.TB, seed wireForm) byte { return kindIn(t, headerForms, seed) }

// kindIn is the index of seed's type in forms.
func kindIn(t testing.TB, forms []func() wireForm, seed wireForm) byte {
	for kind, fresh := range forms {
		if reflect.TypeOf(fresh()) == reflect.TypeOf(seed) {
			return byte(kind)
		}
	}
	t.Fatalf("%T is not one of the forms", seed)
	return 0
}

// TestHeaderWireRoundTrip: every header survives its binary form —
// among them the ones keep-and-refresh extended: a drop reply naming
// the kept part and its pin, an unpin carrying the refresh.
func TestHeaderWireRoundTrip(t *testing.T) {
	for _, in := range headerSeeds() {
		out := headerForms[kindOf(t, in)]()
		first := wiretest.RoundTrip(t, in, out)
		second, err := wire.Encode(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%T %+v came back as %+v", in, in, out)
		}
	}
	var kept dropReply
	wiretest.RoundTrip(t, &dropReply{Kept: gr(1, 1, 2, 2), PinToken: 9, Sharers: []Located{{Region: gr(0, 0, 1, 1), Rank: 1}}}, &kept)
	if kept.PinToken != 9 || !kept.Kept.Equal(gr(1, 1, 2, 2)) || len(kept.Sharers) != 1 || kept.Root != nil {
		t.Errorf("drop reply came back as %+v", kept)
	}
	var refresh unpinArgs
	wiretest.RoundTrip(t, &unpinArgs{Token: 9, Data: []byte("row")}, &refresh)
	if refresh.Token != 9 || string(refresh.Data) != "row" {
		t.Errorf("unpin came back as %+v", refresh)
	}
}

// FuzzHeaderUnmarshal feeds arbitrary bodies to the decoders of the
// data movement headers (the first byte picks the header). Malformed
// input must be an error — never a panic, and never an allocation sized
// by a count the input merely claims (decodeLocated and the region
// decoder bound theirs by the bytes left, Decoder.Count) — and an
// accepted value must re-encode to bytes that decode to the same.
func FuzzHeaderUnmarshal(f *testing.F) {
	seedForms(f, headerForms, headerSeeds())
	// A sharer list claiming 2^40 entries in a 12-byte body.
	f.Add(byte(1), append([]byte{0}, wire.AppendUvarint(nil, 1<<40)...))
	fuzzForms(f, headerForms)
}

// TestDIMArgsWireRoundTrip: every request and reply form survives its
// binary form, and refuses it cut short or followed by a byte.
func TestDIMArgsWireRoundTrip(t *testing.T) {
	for _, in := range argSeeds() {
		out := argForms[kindIn(t, argForms, in)]()
		first := wiretest.RoundTrip(t, in, out)
		if second, err := wire.Encode(out); err != nil || !bytes.Equal(first, second) {
			t.Errorf("%T %+v came back as %+v (%v)", in, in, out, err)
		}
	}
}

// FuzzDIMArgsUnmarshal is FuzzHeaderUnmarshal over the forms of every
// DIM service (argForms): destruction, index reports, resolution
// batches, the recovery retraction and a part given back too (an ask
// is an unpin's form).
func FuzzDIMArgsUnmarshal(f *testing.F) {
	seedForms(f, argForms, argSeeds())
	fuzzForms(f, argForms)
}

// seedForms adds each seed, its first half and a copy with a trailing
// byte, under the index of its form.
func seedForms(f *testing.F, forms []func() wireForm, seeds []wireForm) {
	for _, seed := range seeds {
		body, err := seed.AppendWire(nil)
		if err != nil {
			f.Fatal(err)
		}
		kind := kindIn(f, forms, seed)
		f.Add(kind, body)
		f.Add(kind, body[:len(body)/2])
		f.Add(kind, append(body[:len(body):len(body)], 0xAB))
	}
}

// fuzzForms decodes arbitrary bodies as the form the first byte picks.
func fuzzForms(f *testing.F, forms []func() wireForm) {
	decode := func(body []byte, v wireForm) error {
		return wire.Decode(append([]byte{wire.FormatBinary}, body...), v)
	}
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		fresh := forms[int(kind)%len(forms)]
		v, w := fresh(), fresh()
		if decode(body, v) != nil {
			return
		}
		first, err := v.AppendWire(nil)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if err := decode(first, w); err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", v, err)
		}
		second, err := w.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding %T is not stable: %x then %x", v, first, second)
		}
	})
}
