package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// AppendRecordJSON appends one record's compact JSON to dst, the one
// JSON form a Record has: Record.MarshalJSON returns these bytes and
// Record.UnmarshalJSON inverts them. A record with finite floats
// encodes byte-identically to encoding/json on the struct: same field
// order, same omitempty behaviour, same float formatting, same string
// escaping. NaN and infinities, which encoding/json refuses, are spelled
// as the strings "NaN", "+Inf" and "-Inf". It neither reflects nor
// allocates (beyond growing dst). The error is always nil.
func AppendRecordJSON(dst []byte, r Record) ([]byte, error) {
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

// MarshalJSON returns AppendRecordJSON's bytes, so every encoder of a
// Record (WriteJSON, the service's JSON payloads) writes the one form.
func (r Record) MarshalJSON() ([]byte, error) {
	return AppendRecordJSON(nil, r)
}

// UnmarshalJSON is AppendRecordJSON's inverse. A record in the layout
// AppendRecordJSON writes, compact or indented (a WriteJSON document's),
// is read by recordReader, spelled floats included. Any other layout
// (reordered or unknown keys, say) decodes as encoding/json decodes the
// struct, where a float must be a number. r is reset first, so fields
// absent from b are zero.
func (r *Record) UnmarshalJSON(b []byte) error {
	if r.read(b) {
		return nil
	}
	var compact bytes.Buffer
	if json.Compact(&compact, b) == nil && r.read(compact.Bytes()) {
		return nil
	}
	type plain Record // without methods, so this does not recurse
	*r = Record{}
	return json.Unmarshal(b, (*plain)(r))
}

// read resets r and fills it from b, reporting whether b is exactly one
// record in AppendRecordJSON's layout.
func (r *Record) read(b []byte) bool {
	*r = Record{}
	d := recordReader{b: b, ok: true}
	d.str(`{"scenario":`, false, &r.Scenario)
	d.integer(`,"index":`, false, &r.Index)
	d.str(`,"label":`, false, &r.Label)
	d.key(`,"spec":`, false)
	d.spec(&r.Spec)
	d.str(`,"err":`, true, &r.Err)
	d.float(`,"tx_power_dbm":`, false, &r.TxPowerDBm)
	d.float(`,"spectral_efficiency_bps_hz":`, false, &r.SpectralEfficiency)
	d.integer(`,"code_lifting":`, false, &r.CodeLifting)
	d.integer(`,"code_window":`, false, &r.CodeWindow)
	d.float(`,"decode_latency_bits":`, false, &r.DecodeLatencyBits)
	d.str(`,"topology":`, false, &r.Topology)
	d.float(`,"noc_latency_cycles":`, false, &r.NoCLatencyCycles)
	d.float(`,"noc_saturation":`, false, &r.NoCSaturation)
	d.float(`,"ber_ebn0_db":`, true, &r.BEREbN0DB)
	d.float(`,"ber":`, true, &r.BER)
	d.integer(`,"ber_codewords":`, true, &r.BERCodewords)
	d.float(`,"sim_latency_cycles":`, true, &r.SimLatencyCycles)
	d.float(`,"sim_latency_ci95":`, true, &r.SimLatencyCI95)
	d.integer(`,"sim_replications":`, true, &r.SimReplications)
	d.boolean(`,"pareto":`, &r.Pareto)
	d.key("}", false)
	return d.ok && len(d.b) == 0
}

// recordReader reads the fields of AppendRecordJSON's layout in its
// order from b, a valid JSON value (encoding/json hands UnmarshalJSON
// nothing else). ok turns false at the first departure from the layout.
// Reading the bytes directly, instead of through encoding/json's
// reflection, is what keeps a chunk completion's decode cheap.
type recordReader struct {
	b  []byte
	ok bool
}

// key consumes the literal k if it comes next and reports whether it
// did; an absent k is a departure unless it is optional.
func (d *recordReader) key(k string, optional bool) bool {
	if d.ok && len(d.b) >= len(k) && string(d.b[:len(k)]) == k {
		d.b = d.b[len(k):]
		return true
	}
	d.ok = d.ok && optional
	return false
}

// number consumes a number's bytes: those up to the next ',' or '}'.
func (d *recordReader) number() []byte {
	i := 0
	for i < len(d.b) && d.b[i] != ',' && d.b[i] != '}' {
		i++
	}
	n := d.b[:i]
	d.b = d.b[i:]
	return n
}

// str, integer, float and boolean read the value of field k into v. An
// optional field absent from b leaves v zero.
func (d *recordReader) str(k string, optional bool, v *string) {
	if !d.key(k, optional) {
		return
	}
	i := 1
	for i < len(d.b) && d.b[i] != '"' {
		if d.b[i] == '\\' {
			i++
		}
		i++
	}
	if len(d.b) == 0 || d.b[0] != '"' || i >= len(d.b) {
		d.ok = false
		return
	}
	s, quoted := d.b[1:i], d.b[:i+1]
	d.b = d.b[i+1:]
	if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		*v = string(s)
	} else {
		d.ok = json.Unmarshal(quoted, v) == nil // escapes
	}
}

func (d *recordReader) integer(k string, optional bool, v *int) {
	if d.key(k, optional) {
		n, err := strconv.Atoi(string(d.number()))
		*v, d.ok = n, err == nil
	}
}

func (d *recordReader) float(k string, optional bool, v *float64) {
	if !d.key(k, optional) {
		return
	}
	switch {
	case d.key(`"NaN"`, true):
		*v = math.NaN()
	case d.key(`"+Inf"`, true):
		*v = math.Inf(1)
	case d.key(`"-Inf"`, true):
		*v = math.Inf(-1)
	default:
		f, err := strconv.ParseFloat(string(d.number()), 64)
		*v, d.ok = f, err == nil
	}
}

func (d *recordReader) boolean(k string, v *bool) {
	if d.key(k, false) {
		*v = d.key("true", true)
		d.ok = *v || d.key("false", false)
	}
}

// spec reads appendSpecJSON's layout.
func (d *recordReader) spec(sp *core.SystemSpec) {
	d.integer(`{"Boards":`, false, &sp.Boards)
	d.float(`,"BoardSpacingM":`, false, &sp.BoardSpacingM)
	d.float(`,"BoardEdgeM":`, false, &sp.BoardEdgeM)
	d.integer(`,"NodesPerBoard":`, false, &sp.NodesPerBoard)
	d.float(`,"LinkRateGbps":`, false, &sp.LinkRateGbps)
	d.integer(`,"LatencyBudgetBits":`, false, &sp.LatencyBudgetBits)
	d.integer(`,"StackModules":`, false, &sp.StackModules)
	d.float(`,"StackInjectionRate":`, false, &sp.StackInjectionRate)
	d.boolean(`,"Butler":`, &sp.Butler)
	d.float(`,"SNRMarginDB":`, false, &sp.SNRMarginDB)
	if d.key(`,"traffic":`, true) {
		sp.Traffic = new(core.TrafficSpec)
		d.str(`{"pattern":`, false, &sp.Traffic.Pattern)
		d.integer(`,"hotspot_module":`, false, &sp.Traffic.HotspotModule)
		d.float(`,"hotspot_fraction":`, false, &sp.Traffic.HotspotFraction)
		d.key("}", false)
	}
	if d.key(`,"interference":`, true) {
		sp.Interference = new(core.InterferenceSpec)
		d.integer(`{"neighbors":`, false, &sp.Interference.Neighbors)
		d.boolean(`,"copper_boards":`, &sp.Interference.CopperBoards)
		d.float(`,"rejection_db":`, false, &sp.Interference.RejectionDB)
		d.key("}", false)
	}
	if d.key(`,"power":`, true) {
		sp.Power = new(core.PowerSpec)
		d.float(`{"max_tx_power_dbm":`, false, &sp.Power.MaxTxPowerDBm)
		d.key("}", false)
	}
	d.key("}", false)
}

// appendSpecJSON appends json.Marshal(sp)'s bytes to dst. Records and
// point keys both embed the spec, so this is the one encoder for it.
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

// appendJSONFloat appends a float the way encoding/json does: shortest
// round-trip form, 'f' format except for very small or very large
// magnitudes, and a trimmed single-digit exponent ("1e-7", not
// "1e-07"). NaN and infinities, which encoding/json refuses, are
// spelled as the JSON strings "NaN", "+Inf" and "-Inf": the text
// WriteCSV and the Prometheus exposition print for them.
func appendJSONFloat(dst []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(dst, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(dst, `"-Inf"`...)
	}
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

// AppendRecordsJSON appends a compact JSON array of recs (the
// chunk-completion wire shape) to dst: AppendRecordJSON per record,
// and an empty or nil slice encodes as [].
func AppendRecordsJSON(dst []byte, recs []Record) []byte {
	dst = append(dst, '[')
	for i, r := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, _ = AppendRecordJSON(dst, r)
	}
	return append(dst, ']')
}
