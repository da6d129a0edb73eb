package sweep

import "fmt"

// Chunk is a half-open range [Start, End) of positions in a list of
// points — the unit of work a distributed sweep hands to one worker.
// The fleet's dispatcher ranges over a batch's dispatch order, which
// keeps points with equal ModelSignatures contiguous so that one chunk
// runs each shared sub-model.
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
