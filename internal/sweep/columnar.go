package sweep

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// AppendRecordJSON appends one record's compact JSON to dst —
// byte-identical to json.Marshal(r): same field order, same omitempty
// behaviour, same float formatting, same string escaping. It neither
// reflects nor allocates (beyond growing dst), which is what makes the
// wire, stream and segment paths cheap.
func AppendRecordJSON(dst []byte, r Record) ([]byte, error) {
	if err := finiteSpec(r.Spec); err != nil {
		return dst, err
	}
	for _, v := range [...]float64{
		r.TxPowerDBm, r.SpectralEfficiency, r.DecodeLatencyBits,
		r.NoCLatencyCycles, r.NoCSaturation,
		r.BEREbN0DB, r.BER,
		r.SimLatencyCycles, r.SimLatencyCI95,
	} {
		if err := finiteJSONFloat(v); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `{"scenario":`...)
	dst = AppendJSONString(dst, r.Scenario)
	dst = append(dst, `,"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"label":`...)
	dst = AppendJSONString(dst, r.Label)
	dst = append(dst, `,"spec":`...)
	dst = appendSpecJSON(dst, r.Spec)
	if r.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = AppendJSONString(dst, r.Err)
	}
	dst = append(dst, `,"tx_power_dbm":`...)
	dst = appendJSONFloat(dst, r.TxPowerDBm)
	dst = append(dst, `,"spectral_efficiency_bps_hz":`...)
	dst = appendJSONFloat(dst, r.SpectralEfficiency)
	dst = append(dst, `,"code_lifting":`...)
	dst = strconv.AppendInt(dst, int64(r.CodeLifting), 10)
	dst = append(dst, `,"code_window":`...)
	dst = strconv.AppendInt(dst, int64(r.CodeWindow), 10)
	dst = append(dst, `,"decode_latency_bits":`...)
	dst = appendJSONFloat(dst, r.DecodeLatencyBits)
	dst = append(dst, `,"topology":`...)
	dst = AppendJSONString(dst, r.Topology)
	dst = append(dst, `,"noc_latency_cycles":`...)
	dst = appendJSONFloat(dst, r.NoCLatencyCycles)
	dst = append(dst, `,"noc_saturation":`...)
	dst = appendJSONFloat(dst, r.NoCSaturation)
	if r.BEREbN0DB != 0 {
		dst = append(dst, `,"ber_ebn0_db":`...)
		dst = appendJSONFloat(dst, r.BEREbN0DB)
	}
	if r.BER != 0 {
		dst = append(dst, `,"ber":`...)
		dst = appendJSONFloat(dst, r.BER)
	}
	if r.BERCodewords != 0 {
		dst = append(dst, `,"ber_codewords":`...)
		dst = strconv.AppendInt(dst, int64(r.BERCodewords), 10)
	}
	if r.SimLatencyCycles != 0 {
		dst = append(dst, `,"sim_latency_cycles":`...)
		dst = appendJSONFloat(dst, r.SimLatencyCycles)
	}
	if r.SimLatencyCI95 != 0 {
		dst = append(dst, `,"sim_latency_ci95":`...)
		dst = appendJSONFloat(dst, r.SimLatencyCI95)
	}
	if r.SimReplications != 0 {
		dst = append(dst, `,"sim_replications":`...)
		dst = strconv.AppendInt(dst, int64(r.SimReplications), 10)
	}
	dst = append(dst, `,"pareto":`...)
	dst = strconv.AppendBool(dst, r.Pareto)
	dst = append(dst, '}')
	return dst, nil
}

// finiteSpec returns the failure json.Marshal reports for the first
// NaN or infinite float in sp, nil when every float is encodable.
func finiteSpec(sp core.SystemSpec) error {
	for _, v := range [...]float64{
		sp.BoardSpacingM, sp.BoardEdgeM, sp.LinkRateGbps,
		sp.StackInjectionRate, sp.SNRMarginDB,
	} {
		if err := finiteJSONFloat(v); err != nil {
			return err
		}
	}
	// Optional sections carry floats too; guard them only when present
	// so the common nil-section path stays a fixed-size scan.
	if t := sp.Traffic; t != nil {
		if err := finiteJSONFloat(t.HotspotFraction); err != nil {
			return err
		}
	}
	if in := sp.Interference; in != nil {
		if err := finiteJSONFloat(in.RejectionDB); err != nil {
			return err
		}
	}
	if p := sp.Power; p != nil {
		if err := finiteJSONFloat(p.MaxTxPowerDBm); err != nil {
			return err
		}
	}
	return nil
}

// appendSpecJSON appends json.Marshal(sp)'s bytes to dst. Records and
// point keys both embed the spec, so this is the one encoder for it.
// Callers have already run finiteSpec.
func appendSpecJSON(dst []byte, sp core.SystemSpec) []byte {
	// core.SystemSpec has no json tags on its scalar fields: keys are
	// the Go field names.
	dst = append(dst, `{"Boards":`...)
	dst = strconv.AppendInt(dst, int64(sp.Boards), 10)
	dst = append(dst, `,"BoardSpacingM":`...)
	dst = appendJSONFloat(dst, sp.BoardSpacingM)
	dst = append(dst, `,"BoardEdgeM":`...)
	dst = appendJSONFloat(dst, sp.BoardEdgeM)
	dst = append(dst, `,"NodesPerBoard":`...)
	dst = strconv.AppendInt(dst, int64(sp.NodesPerBoard), 10)
	dst = append(dst, `,"LinkRateGbps":`...)
	dst = appendJSONFloat(dst, sp.LinkRateGbps)
	dst = append(dst, `,"LatencyBudgetBits":`...)
	dst = strconv.AppendInt(dst, int64(sp.LatencyBudgetBits), 10)
	dst = append(dst, `,"StackModules":`...)
	dst = strconv.AppendInt(dst, int64(sp.StackModules), 10)
	dst = append(dst, `,"StackInjectionRate":`...)
	dst = appendJSONFloat(dst, sp.StackInjectionRate)
	dst = append(dst, `,"Butler":`...)
	dst = strconv.AppendBool(dst, sp.Butler)
	dst = append(dst, `,"SNRMarginDB":`...)
	dst = appendJSONFloat(dst, sp.SNRMarginDB)
	// The optional sections are tagged pointers with omitempty: nil
	// emits nothing (preserving the pre-section byte stream), non-nil
	// emits every section field in declaration order.
	if t := sp.Traffic; t != nil {
		dst = append(dst, `,"traffic":{"pattern":`...)
		dst = AppendJSONString(dst, t.Pattern)
		dst = append(dst, `,"hotspot_module":`...)
		dst = strconv.AppendInt(dst, int64(t.HotspotModule), 10)
		dst = append(dst, `,"hotspot_fraction":`...)
		dst = appendJSONFloat(dst, t.HotspotFraction)
		dst = append(dst, '}')
	}
	if in := sp.Interference; in != nil {
		dst = append(dst, `,"interference":{"neighbors":`...)
		dst = strconv.AppendInt(dst, int64(in.Neighbors), 10)
		dst = append(dst, `,"copper_boards":`...)
		dst = strconv.AppendBool(dst, in.CopperBoards)
		dst = append(dst, `,"rejection_db":`...)
		dst = appendJSONFloat(dst, in.RejectionDB)
		dst = append(dst, '}')
	}
	if p := sp.Power; p != nil {
		dst = append(dst, `,"power":{"max_tx_power_dbm":`...)
		dst = appendJSONFloat(dst, p.MaxTxPowerDBm)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// finiteJSONFloat rejects the floats encoding/json refuses, matching
// its *UnsupportedValueError text so callers switching to this encoder
// see familiar failures.
func finiteJSONFloat(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	return nil
}

// appendJSONFloat appends a float the way encoding/json does: shortest
// round-trip form, 'f' format except for very small or very large
// magnitudes, and a trimmed single-digit exponent ("1e-7", not
// "1e-07"). Callers have already rejected NaN and infinities.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	// Integral values below 1e15 (inside float64's exact-integer range)
	// print as their integer digits; most spec knobs are integral.
	// Negative zero takes the general path, which keeps its sign.
	if abs < 1e15 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// jsonSafe marks bytes encoding/json emits verbatim inside a quoted
// string (its htmlSafeSet: printable ASCII minus `"`, `\`, `<`, `>`,
// `&`).
var jsonSafe = func() (s [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		s[c] = true
	}
	s['"'], s['\\'], s['<'], s['>'], s['&'] = false, false, false, false, false
	return
}()

const jsonHex = "0123456789abcdef"

// AppendJSONString appends a quoted string with encoding/json's exact
// escaping rules (HTML escaping on, invalid UTF-8 replaced by U+FFFD,
// U+2028/U+2029 escaped). The store's segment writer uses it for entry
// keys.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendRecordsJSON appends a compact JSON array of recs — the
// chunk-completion wire shape — to dst: json.Marshal(recs)'s bytes,
// except that an empty or nil slice encodes as []. An unencodable
// record's error names its Index.
func AppendRecordsJSON(dst []byte, recs []Record) ([]byte, error) {
	dst = append(dst, '[')
	for i, r := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendRecordJSON(dst, r); err != nil {
			return dst, fmt.Errorf("record %d: %w", r.Index, err)
		}
	}
	return append(dst, ']'), nil
}
