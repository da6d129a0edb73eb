package sweep

import "fmt"

// Chunk is a half-open range [Start, End) of positions in a list of
// points — the unit of work a distributed sweep hands to one worker.
// The fleet's dispatcher ranges over a batch's dispatch order, which
// keeps points with equal ModelSignatures contiguous so that one chunk
// runs each shared sub-model; Chunks ranges over the list itself.
// Because every point's Monte-Carlo sub-models draw from streams that
// are a pure function of (sweep seed, sub-model content), a chunk is
// independently evaluable: EvaluatePoints over its points with the
// sweep's seed and budget, in any process, reproduces exactly the
// records a single-node Run would have produced for them.
type Chunk struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of points in the chunk.
func (c Chunk) Len() int { return c.End - c.Start }

func (c Chunk) String() string { return fmt.Sprintf("[%d,%d)", c.Start, c.End) }

// Chunks partitions n grid points into contiguous chunks of at most
// size points each (size <= 0 selects one chunk per point). The
// partition is deterministic: the same (n, size) always yields the same
// chunks, so daemon and workers agree on work-unit boundaries without
// negotiation.
func Chunks(n, size int) []Chunk {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		size = 1
	}
	out := make([]Chunk, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Chunk{Start: lo, End: hi})
	}
	return out
}
