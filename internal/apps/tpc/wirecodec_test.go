package tpc

import (
	"math"
	"testing"

	"allscale/internal/wire/wiretest"
)

// samePoint compares coordinates bit for bit (NaN != NaN otherwise).
func samePoint(a, b Point7) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var codecPoints = []Point7{
	{},
	{1.5, -2.25, 99.999, 0, 1e-300, -1e300, 42},
	{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64, 7},
}

// TestArgsWireRoundTrip covers the three argument structs, with NaN,
// ±Inf and -0 coordinates and negative block indices.
func TestArgsWireRoundTrip(t *testing.T) {
	for _, in := range []loadArgs{{0, 8}, {-3, 1 << 40}} {
		var out loadArgs
		wiretest.RoundTrip(t, &in, &out)
		if out != in {
			t.Errorf("loadArgs %+v came back as %+v", in, out)
		}
	}
	for _, q := range codecPoints {
		for _, r := range []float64{30, math.NaN(), math.Inf(-1)} {
			in := queryArgs{Q: q, R: r}
			var out queryArgs
			wiretest.RoundTrip(t, &in, &out)
			if !samePoint(out.Q, in.Q) || math.Float64bits(out.R) != math.Float64bits(in.R) {
				t.Errorf("queryArgs %+v came back as %+v", in, out)
			}
			sin := subArgs{Node: math.MaxUint64, Q: q, R: r}
			var sout subArgs
			wiretest.RoundTrip(t, &sin, &sout)
			if sout.Node != sin.Node || !samePoint(sout.Q, sin.Q) || math.Float64bits(sout.R) != math.Float64bits(sin.R) {
				t.Errorf("subArgs %+v came back as %+v", sin, sout)
			}
		}
	}
}

var codecNodes = []*KDNode{
	{},
	{Lo: codecPoints[1], Hi: codecPoints[2], Count: 1 << 40, SplitDim: 6, SplitVal: -0.5},
	{Lo: codecPoints[2], Count: 3, SplitDim: -1, SplitVal: math.NaN(), Points: codecPoints},
}

// TestKDNodeWireRoundTrip covers the tree item's element type — inner
// nodes without a bucket, leaves with one — and the MPI query batch.
func TestKDNodeWireRoundTrip(t *testing.T) {
	for _, in := range codecNodes {
		var out KDNode
		wiretest.RoundTrip(t, in, &out)
		same := samePoint(out.Lo, in.Lo) && samePoint(out.Hi, in.Hi) && out.Count == in.Count &&
			out.SplitDim == in.SplitDim && math.Float64bits(out.SplitVal) == math.Float64bits(in.SplitVal) &&
			len(out.Points) == len(in.Points)
		for i := 0; same && i < len(in.Points); i++ {
			same = samePoint(out.Points[i], in.Points[i])
		}
		if !same {
			t.Errorf("KDNode %+v came back as %+v", *in, out)
		}
	}
	batch := point7s(codecPoints)
	var out point7s
	wiretest.RoundTrip(t, batch, &out)
	if len(out) != len(batch) {
		t.Fatalf("batch of %d points came back with %d", len(batch), len(out))
	}
	for i := range batch {
		if !samePoint(out[i], batch[i]) {
			t.Errorf("point %d: %v came back as %v", i, batch[i], out[i])
		}
	}
}

func FuzzKDNodeUnmarshal(f *testing.F) { wiretest.FuzzUnmarshal(f, codecNodes...) }

func FuzzLoadArgsUnmarshal(f *testing.F) {
	wiretest.FuzzUnmarshal(f, &loadArgs{0, 8}, &loadArgs{-1, 1 << 50})
}

func FuzzQueryArgsUnmarshal(f *testing.F) {
	wiretest.FuzzUnmarshal(f, &queryArgs{Q: codecPoints[1], R: 30}, &queryArgs{Q: codecPoints[2], R: math.NaN()})
}

func FuzzSubArgsUnmarshal(f *testing.F) {
	wiretest.FuzzUnmarshal(f, &subArgs{Node: 9, Q: codecPoints[1], R: 30}, &subArgs{Node: math.MaxUint64, Q: codecPoints[2], R: math.Inf(1)})
}
