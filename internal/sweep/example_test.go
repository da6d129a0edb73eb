package sweep_test

import (
	"context"
	"fmt"

	"repro/internal/sweep"
)

// Map evaluates an index range on a bounded worker pool. Result i
// always lands in slot i, so the output is independent of the worker
// count — the property every sweep in this repository is built on.
func ExampleMap() {
	squares, err := sweep.Map(context.Background(), 6, 3, func(i int) int {
		return i * i
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(squares)
	// Output: [0 1 4 9 16 25]
}

// Pareto.Mark flags the records that no other record beats on every
// objective at once. The zero rule is the default trio: transmit power
// (min), decode latency (min), NoC saturation headroom (max), over every
// record that evaluated without error.
func ExamplePareto_Mark() {
	recs := []sweep.Record{
		{Label: "low-power", TxPowerDBm: 10, DecodeLatencyBits: 200, NoCSaturation: 0.30},
		{Label: "low-latency", TxPowerDBm: 12, DecodeLatencyBits: 100, NoCSaturation: 0.30},
		{Label: "worse-everywhere", TxPowerDBm: 13, DecodeLatencyBits: 250, NoCSaturation: 0.25},
	}
	for _, i := range (sweep.Pareto{}).Mark(recs) {
		fmt.Println(recs[i].Label)
	}
	// Output:
	// low-power
	// low-latency
}
