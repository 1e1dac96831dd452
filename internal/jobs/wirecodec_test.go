package jobs

import (
	"math"
	"testing"

	"allscale/internal/wire/wiretest"
)

var (
	dagSeeds  = []*dagArgs{{}, {Levels: 6, Spin: 32, Seed: math.MaxUint64}, {Levels: -1, Spin: -7, Seed: 1}}
	tpcSeeds  = []*TPCParams{{}, {NumPoints: 512, Height: 6, Radius: 0.2, NumQueries: 16, Seed: -9}, {Radius: math.Inf(-1), Seed: math.MinInt64}}
	ipicSeeds = []*IPiC3DParams{{}, {N: 4, Steps: 2, PartsPerCell: 2, Dt: 0.1, Seed: 3}, {N: -1, Dt: math.NaN(), Seed: math.MaxInt64}}
)

// TestWorkloadArgsWireRoundTrip covers what the families hand the
// scheduler as task arguments.
func TestWorkloadArgsWireRoundTrip(t *testing.T) {
	for _, in := range dagSeeds {
		var out dagArgs
		wiretest.RoundTrip(t, in, &out)
		if out != *in {
			t.Errorf("dagArgs %+v came back as %+v", *in, out)
		}
	}
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, in := range tpcSeeds {
		var out TPCParams
		wiretest.RoundTrip(t, in, &out)
		want := *in
		if !sameFloat(out.Radius, want.Radius) {
			t.Errorf("TPCParams radius %v came back as %v", want.Radius, out.Radius)
		}
		out.Radius, want.Radius = 0, 0
		if out != want {
			t.Errorf("TPCParams %+v came back as %+v", *in, out)
		}
	}
	for _, in := range ipicSeeds {
		var out IPiC3DParams
		wiretest.RoundTrip(t, in, &out)
		want := *in
		if !sameFloat(out.Dt, want.Dt) {
			t.Errorf("IPiC3DParams dt %v came back as %v", want.Dt, out.Dt)
		}
		out.Dt, want.Dt = 0, 0
		if out != want {
			t.Errorf("IPiC3DParams %+v came back as %+v", *in, out)
		}
	}
}

func FuzzDagArgsUnmarshal(f *testing.F)      { wiretest.FuzzUnmarshal(f, dagSeeds...) }
func FuzzTPCParamsUnmarshal(f *testing.F)    { wiretest.FuzzUnmarshal(f, tpcSeeds...) }
func FuzzIPiC3DParamsUnmarshal(f *testing.F) { wiretest.FuzzUnmarshal(f, ipicSeeds...) }
