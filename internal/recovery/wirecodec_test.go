package recovery

import (
	"math"
	"testing"

	"allscale/internal/wire/wiretest"
)

var updateSeeds = []*membershipUpdate{
	{},
	{Rank: 4, Epoch: 7},
	{Rank: -1, Epoch: math.MaxUint64, Depart: true},
}

func TestMembershipUpdateWireRoundTrip(t *testing.T) {
	for _, in := range updateSeeds {
		var out membershipUpdate
		wiretest.RoundTrip(t, in, &out)
		if out != *in {
			t.Errorf("%+v came back as %+v", *in, out)
		}
	}
}

func FuzzMembershipUpdateUnmarshal(f *testing.F) { wiretest.FuzzUnmarshal(f, updateSeeds...) }
