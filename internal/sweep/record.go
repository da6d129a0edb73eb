package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
)

// Record is the typed result of one evaluated design point. It replaces
// the string-only reports of the experiment layer: every field a
// downstream tool might plot, rank or filter is structured.
type Record struct {
	Scenario string          `json:"scenario"`
	Index    int             `json:"index"`
	Label    string          `json:"label"`
	Spec     core.SystemSpec `json:"spec"`
	// Err is set when the design pipeline rejected the point (for
	// example no topology sustains the injection rate); all result
	// fields are zero then.
	Err string `json:"err,omitempty"`

	// Link results.
	TxPowerDBm         float64 `json:"tx_power_dbm"`
	SpectralEfficiency float64 `json:"spectral_efficiency_bps_hz"`

	// Coding results.
	CodeLifting       int     `json:"code_lifting"`
	CodeWindow        int     `json:"code_window"`
	DecodeLatencyBits float64 `json:"decode_latency_bits"`

	// Intra-stack NoC results.
	Topology         string  `json:"topology"`
	NoCLatencyCycles float64 `json:"noc_latency_cycles"`
	NoCSaturation    float64 `json:"noc_saturation"`

	// Monte-Carlo results (present when the budget enables them;
	// BERCodewords / SimReplications report the spent budget).
	BEREbN0DB        float64 `json:"ber_ebn0_db,omitempty"`
	BER              float64 `json:"ber,omitempty"`
	BERCodewords     int     `json:"ber_codewords,omitempty"`
	SimLatencyCycles float64 `json:"sim_latency_cycles,omitempty"`
	SimLatencyCI95   float64 `json:"sim_latency_ci95,omitempty"`
	SimReplications  int     `json:"sim_replications,omitempty"`

	// Pareto marks membership of the job's front (see Pareto.Mark).
	Pareto bool `json:"pareto"`
}

// WriteJSON emits a result document (a sweep's Result, an
// optimization's) as indented JSON. Field order and float formatting
// are fixed, so equal results are byte-identical.
func WriteJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// csvHeader fixes the CSV column order.
var csvHeader = []string{
	"scenario", "index", "label", "err",
	"boards", "nodes_per_board", "board_spacing_m", "link_rate_gbps",
	"latency_budget_bits", "stack_modules", "stack_injection_rate", "butler",
	"tx_power_dbm", "spectral_efficiency_bps_hz",
	"code_lifting", "code_window", "decode_latency_bits",
	"topology", "noc_latency_cycles", "noc_saturation",
	"ber_ebn0_db", "ber", "ber_codewords",
	"sim_latency_cycles", "sim_latency_ci95", "sim_replications",
	"pareto",
}

// WriteCSV emits the records as a CSV table with a fixed header.
func WriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range recs {
		row := []string{
			r.Scenario, strconv.Itoa(r.Index), r.Label, r.Err,
			strconv.Itoa(r.Spec.Boards), strconv.Itoa(r.Spec.NodesPerBoard),
			f(r.Spec.BoardSpacingM), f(r.Spec.LinkRateGbps),
			strconv.Itoa(r.Spec.LatencyBudgetBits), strconv.Itoa(r.Spec.StackModules),
			f(r.Spec.StackInjectionRate), strconv.FormatBool(r.Spec.Butler),
			f(r.TxPowerDBm), f(r.SpectralEfficiency),
			strconv.Itoa(r.CodeLifting), strconv.Itoa(r.CodeWindow), f(r.DecodeLatencyBits),
			r.Topology, f(r.NoCLatencyCycles), f(r.NoCSaturation),
			f(r.BEREbN0DB), f(r.BER), strconv.Itoa(r.BERCodewords),
			f(r.SimLatencyCycles), f(r.SimLatencyCI95), strconv.Itoa(r.SimReplications),
			strconv.FormatBool(r.Pareto),
		}
		if len(row) != len(csvHeader) {
			// A row that drifted from the header (a field added to one
			// but not the other) would silently skew every column after
			// the mismatch; fail the whole write instead.
			return fmt.Errorf("sweep: CSV row for record #%d has %d fields, header has %d", r.Index, len(row), len(csvHeader))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary renders a one-line digest of a record for terminal output.
func (r Record) Summary() string {
	if r.Err != "" {
		return fmt.Sprintf("#%-3d %-40s INFEASIBLE: %s", r.Index, r.Label, r.Err)
	}
	mark := " "
	if r.Pareto {
		mark = "*"
	}
	return fmt.Sprintf("#%-3d%s %-40s ptx %6.1f dBm  twd %4.0f bits  sat %.3f f/c/m (%s)",
		r.Index, mark, r.Label, r.TxPowerDBm, r.DecodeLatencyBits, r.NoCSaturation, r.Topology)
}
