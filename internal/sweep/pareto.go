package sweep

// dominates reports whether a is at least as good as b on every
// objective and strictly better on one: lower transmit power, lower
// structural decode latency, higher NoC saturation headroom.
func dominates(a, b Record) bool {
	if a.TxPowerDBm > b.TxPowerDBm ||
		a.DecodeLatencyBits > b.DecodeLatencyBits ||
		a.NoCSaturation < b.NoCSaturation {
		return false
	}
	return a.TxPowerDBm < b.TxPowerDBm ||
		a.DecodeLatencyBits < b.DecodeLatencyBits ||
		a.NoCSaturation > b.NoCSaturation
}

// MarkParetoFeasible sets the Pareto flag on every non-dominated
// feasible record and returns their indices in record order. A record
// is feasible when its Err is empty and it passes the feasibility
// predicate (user spec constraints; nil admits every Err-free record).
// Infeasible records neither join nor dominate the front. The predicate only shapes
// this job-level marking pass — record metric bytes are untouched, so
// the point cache stays shared across specs that differ only in their
// constraints.
func MarkParetoFeasible(recs []Record, feasible func(Record) bool) []int {
	ok := make([]bool, len(recs))
	for i := range recs {
		recs[i].Pareto = false
		ok[i] = recs[i].Err == "" && (feasible == nil || feasible(recs[i]))
	}
	var front []int
	for i := range recs {
		if !ok[i] {
			continue
		}
		dominated := false
		for j := range recs {
			if i == j || !ok[j] {
				continue
			}
			if dominates(recs[j], recs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			recs[i].Pareto = true
			front = append(front, i)
		}
	}
	return front
}
