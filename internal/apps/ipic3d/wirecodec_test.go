package ipic3d

import (
	"math"
	"reflect"
	"testing"

	"allscale/internal/wire/wiretest"
)

var (
	codecCells = []Cell{
		{Parts: []Particle{}},
		{Parts: []Particle{{ID: 7, Pos: Vec3{1, 2, 3}, Vel: Vec3{-0.5, 0, 1e-300}}}},
		{Parts: []Particle{{ID: -1, Pos: Vec3{math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64}}, {ID: math.MaxInt64}}},
	}
	codecBand = &bandMsg{Cells: codecCells, E: []Vec3{{}, {0.01, -0.02, 1e300}}}
)

func roundTrip[T any, P wiretest.Codec[T]](t *testing.T, in P) {
	t.Helper()
	var out T
	wiretest.RoundTrip(t, in, P(&out))
	if !reflect.DeepEqual(out, *in) {
		t.Errorf("%+v came back as %+v", *in, out)
	}
}

// TestWireRoundTrip covers the two grid element types and the MPI
// message.
func TestWireRoundTrip(t *testing.T) {
	for _, v := range []Vec3{{}, {1.5, -2.25, math.MaxFloat64}, {math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64}} {
		roundTrip(t, &v)
	}
	for i := range codecCells {
		roundTrip(t, &codecCells[i])
	}
	roundTrip(t, codecBand)
}

func FuzzCellUnmarshal(f *testing.F) {
	wiretest.FuzzUnmarshal(f, &codecCells[0], &codecCells[1], &codecCells[2])
}

func FuzzBandMsgUnmarshal(f *testing.F) { wiretest.FuzzUnmarshal(f, codecBand, &bandMsg{}) }
