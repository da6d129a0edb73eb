package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

// legacyRecord is sweep.Record without its JSON methods, so json.Marshal
// of it is encoding/json's own rendering of the struct.
type legacyRecord sweep.Record

// TestPutLineMatchesLegacyEncoding pins the columnar segment writer to
// the bytes the original double json.Marshal produced, so stores
// written before and after the switch interleave freely in the same
// segment files.
func TestPutLineMatchesLegacyEncoding(t *testing.T) {
	recs := []sweep.Record{
		{},
		{
			Scenario: "paper-grid", Index: 3, Label: `edge "label" <&>`,
			Spec: core.SystemSpec{
				Boards: 4, BoardSpacingM: 0.1, BoardEdgeM: 0.1, NodesPerBoard: 16,
				LinkRateGbps: 100, LatencyBudgetBits: 1024, StackModules: 8,
				StackInjectionRate: 0.05, Butler: true, SNRMarginDB: 3,
			},
			TxPowerDBm: -3.75, SpectralEfficiency: 6.25,
			CodeLifting: 12, CodeWindow: 5, DecodeLatencyBits: 300,
			Topology: "folded-torus", NoCLatencyCycles: 14.5, NoCSaturation: 0.35,
			BEREbN0DB: 3, BER: 1.25e-5, BERCodewords: 4096, Pareto: true,
		},
		{Err: "infeasible", TxPowerDBm: 1e-7, SpectralEfficiency: 1e21},
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"0a0b0c0d", "ffee00112233445566778899aabbccdd", `odd "key"`,
	}
	for i, r := range recs {
		s.Put(keys[i], r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}

	var want []byte
	for i, r := range recs {
		raw, err := json.Marshal(legacyRecord(r))
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(entry{Key: keys[i], Engine: sweep.EngineVersion, Record: raw})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line...)
		want = append(want, '\n')
	}
	if !bytes.Equal(got, want) {
		t.Errorf("segment bytes drifted from legacy encoding\n got %s\nwant %s", got, want)
	}
}
