package tpc

import (
	"allscale/internal/mpi"
	"allscale/internal/region"
	"allscale/internal/wire"
)

// RunMPI executes the hand-distributed reference version: every rank
// holds the root block plus its statically assigned subtree blocks;
// rank 0 broadcasts query *batches* (the aggregation optimization the
// paper credits for MPI's superior TPC scalability — Section 4.2),
// every rank answers each query over its own blocks, and the partial
// counts are summed at rank 0.
func RunMPI(ranks int, p Params) ([]int64, error) {
	w := mpi.NewWorld(ranks)
	defer w.Close()

	batch := p.Batch
	if batch <= 0 {
		batch = 64
	}
	queries := GenerateQueries(p.NumQueries, p.Seed)
	result := make([]int64, len(queries))
	const (
		tagBatch   = 1
		tagPartial = 2
	)

	err := w.Run(func(c *mpi.Comm) error {
		rank, size := c.Rank(), c.Size()
		tree := cachedTree(p)
		blocks := p.numBlocks()
		var owned []region.NodeID
		for b := 0; b < blocks; b++ {
			if blockOwner(b, blocks, size) == rank {
				owned = append(owned, p.blockRoot(b))
			}
		}

		answer := func(q Point7) int64 {
			var total int64
			for _, root := range owned {
				total += CountVisit(tree.Node, root, root.Depth()+1, p.Height, q, p.Radius, nil, nil)
			}
			return total
		}

		for lo := 0; lo < len(queries); lo += batch {
			hi := lo + batch
			if hi > len(queries) {
				hi = len(queries)
			}
			// Rank 0 broadcasts the aggregated batch.
			var payload []byte
			if rank == 0 {
				var err error
				if payload, err = wire.Encode(point7s(queries[lo:hi])); err != nil {
					return err
				}
			}
			data, err := c.Bcast(0, payload)
			if err != nil {
				return err
			}
			var qs point7s
			if err := wire.Decode(data, &qs); err != nil {
				return err
			}
			// Answer locally, gather partial counts at rank 0. The
			// []int64 partials take the codec's bulk binary path.
			partial := make([]int64, len(qs))
			for i, q := range qs {
				partial[i] = answer(q)
			}
			pdata, err := wire.Encode(partial)
			if err != nil {
				return err
			}
			parts, err := c.Gather(0, pdata)
			if err != nil {
				return err
			}
			if rank == 0 {
				for _, pd := range parts {
					var counts []int64
					if err := wire.Decode(pd, &counts); err != nil {
						return err
					}
					for i, cnt := range counts {
						result[lo+i] += cnt
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}
