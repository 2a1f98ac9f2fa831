package obs

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// The reference encoders below are the text encoders as they stood
// before the one-pass rewrite: a bufio write per token and strconv's
// shortest-float search for every number (fmt's %g for CSV). For any
// scope that needs no escaping the production encoders must match them
// byte for byte.

func refJSONL(b *bufio.Writer, ev Event) {
	var ch [64]byte
	num := func(v float64) { b.Write(strconv.AppendFloat(ch[:0], v, 'g', -1, 64)) }
	integer := func(v int64) { b.Write(strconv.AppendInt(ch[:0], v, 10)) }
	b.WriteString(`{"t_us":`)
	num(ev.T.Micros())
	b.WriteString(`,"ev":"`)
	b.WriteString(ev.Type.String())
	b.WriteString(`","scope":"`)
	b.WriteString(ev.Scope)
	b.WriteString(`","flow":`)
	integer(ev.Flow)
	b.WriteString(`,"seq":`)
	integer(ev.Seq)
	b.WriteString(`,"bytes":`)
	integer(int64(ev.Bytes))
	b.WriteString(`,"val":`)
	num(ev.Val)
	b.WriteString(`,"aux":`)
	num(ev.Aux)
	b.WriteString(`,"aux2":`)
	num(ev.Aux2)
	b.WriteString("}\n")
}

func refCSV(b *bufio.Writer, ev Event) {
	fmt.Fprintf(b, "%g,%s,%s,%d,%d,%d,%g,%g,%g\n",
		ev.T.Micros(), ev.Type, ev.Scope, ev.Flow, ev.Seq, int64(ev.Bytes),
		ev.Val, ev.Aux, ev.Aux2)
}

func refMetricsRow(b *bufio.Writer, t sim.Time, scope, metric string, v float64) {
	var ch [64]byte
	b.Write(strconv.AppendFloat(ch[:0], t.Micros(), 'g', -1, 64))
	b.WriteByte(',')
	b.WriteString(scope)
	b.WriteByte(',')
	b.WriteString(metric)
	b.WriteByte(',')
	b.Write(strconv.AppendFloat(ch[:0], v, 'g', -1, 64))
	b.WriteByte('\n')
}

// encoderPair drives one production encoder and its reference into
// separate buffers so each record can be compared on its own.
type encoderPair struct {
	got, want bytes.Buffer
	flushGot  func()
	ref       *bufio.Writer
}

// jsonlPair, csvPair and metricsPair return the production encoder (as
// a record function) alongside its reference.
func jsonlPair() (*encoderPair, func(Event)) {
	p := &encoderPair{}
	s := NewJSONLSink(&p.got)
	p.flushGot = func() { s.w.Flush() }
	p.ref = bufio.NewWriter(&p.want)
	return p, s.Record
}

func csvPair() (*encoderPair, func(Event)) {
	p := &encoderPair{}
	s := NewCSVSink(&p.got)
	s.head = "" // the header is not part of any one record
	p.flushGot = func() { s.w.Flush() }
	p.ref = bufio.NewWriter(&p.want)
	return p, s.Record
}

func metricsPair() (*encoderPair, *Runtime) {
	p := &encoderPair{}
	rt := NewRuntime(Config{MetricsOut: &p.got})
	rt.mw.head = ""
	p.flushGot = func() { rt.mw.w.Flush() }
	p.ref = bufio.NewWriter(&p.want)
	return p, rt
}

// check compares the record each side wrote since the last check.
func (p *encoderPair) check(t *testing.T, what string, arg any) bool {
	t.Helper()
	p.flushGot()
	p.ref.Flush()
	ok := bytes.Equal(p.got.Bytes(), p.want.Bytes())
	if !ok {
		t.Errorf("%s %+v\n got: %q\nwant: %q", what, arg, p.got.Bytes(), p.want.Bytes())
	}
	p.got.Reset()
	p.want.Reset()
	return ok
}

var (
	edgeTimes = []sim.Time{0, 1, 99, 100, 101, 1e12 - 1, 1e12, 1e12 + 1, sim.Forever,
		-1, 1e6, 123456789, 999999999999, 5e5, 1<<53 + 1}
	edgeVals = []float64{0, math.Copysign(0, -1), 1, -1, 999999, -999999, 1e6, -1e6,
		0.5, -0.5, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64,
		999999.5, -999999.5, 1e21, 123456.789, 0.1, 1e-5, 4.84}
)

func TestEncodersMatchReferenceEdges(t *testing.T) {
	jp, jrec := jsonlPair()
	cp, crec := csvPair()
	mp, rt := metricsPair()
	n := len(edgeVals)
	for _, ts := range edgeTimes {
		for i, v := range edgeVals {
			ev := Event{T: ts, Type: EvDataEnq, Scope: "h0->tor", Flow: int64(i), Seq: -int64(i),
				Bytes: 1538, Val: v, Aux: edgeVals[(i+1)%n], Aux2: edgeVals[(i+2)%n]}
			jrec(ev)
			refJSONL(jp.ref, ev)
			jp.check(t, "jsonl", ev)
			crec(ev)
			refCSV(cp.ref, ev)
			cp.check(t, "csv", ev)
			rt.WriteRow(ts, "r0", "port/h0->tor/qbytes", v)
			refMetricsRow(mp.ref, ts, "r0", "port/h0->tor/qbytes", v)
			mp.check(t, "metrics", ev)
		}
	}
}

// randTime spreads t over every magnitude up to 2^62 ps, so both sides
// of the one-second fast-path boundary are well covered.
func randTime(r *rand.Rand) sim.Time {
	return sim.Time(r.Int63n(1<<62) >> r.Intn(63))
}

// randFloat mixes arbitrary bit patterns (NaN payloads, subnormals,
// huge magnitudes) with integers around the ±1e6 fast-path edge and
// short decimals like the rates and ratios the simulator emits.
func randFloat(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return math.Float64frombits(r.Uint64())
	case 1:
		return float64(r.Int63n(4e6) - 2e6)
	case 2:
		return float64(r.Int63n(2e7)-1e7) / math.Pow10(r.Intn(9))
	case 3:
		return r.NormFloat64() * math.Pow10(r.Intn(40)-20)
	default:
		return edgeVals[r.Intn(len(edgeVals))]
	}
}

// TestEncodersMatchReferenceRandom is a seeded sweep: a million
// timestamps and a million floats through the number formatters, each
// float checked against both strconv and fmt's %g, then a smaller run of
// whole records through all three encoders.
func TestEncodersMatchReferenceRandom(t *testing.T) {
	values, records := 1<<20, 1<<14
	if testing.Short() {
		values, records = 1<<14, 1<<10
	}
	r := rand.New(rand.NewSource(1))
	var got, want, viaFmt []byte
	for i := 0; i < values; i++ {
		ts := randTime(r)
		got = appendMicros(got[:0], ts)
		want = strconv.AppendFloat(want[:0], ts.Micros(), 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendMicros(%d) = %s, want %s", ts, got, want)
		}
		v := randFloat(r)
		got = appendNum(got[:0], v)
		want = strconv.AppendFloat(want[:0], v, 'g', -1, 64)
		viaFmt = fmt.Appendf(viaFmt[:0], "%g", v)
		if !bytes.Equal(got, want) || !bytes.Equal(got, viaFmt) {
			t.Fatalf("appendNum(%#x) = %s, want %s (fmt %s)", math.Float64bits(v), got, want, viaFmt)
		}
	}
	jp, jrec := jsonlPair()
	cp, crec := csvPair()
	mp, rt := metricsPair()
	for i := 0; i < records; i++ {
		ev := Event{T: randTime(r), Type: EventType(r.Intn(int(numEventTypes))), Scope: "tor->h3",
			Flow: r.Int63() - r.Int63(), Seq: r.Int63n(1 << 20), Bytes: 84,
			Val: randFloat(r), Aux: randFloat(r), Aux2: randFloat(r)}
		jrec(ev)
		refJSONL(jp.ref, ev)
		crec(ev)
		refCSV(cp.ref, ev)
		rt.WriteRow(ev.T, "r1", "flow/7/rate", ev.Val)
		refMetricsRow(mp.ref, ev.T, "r1", "flow/7/rate", ev.Val)
		if !jp.check(t, "jsonl", ev) || !cp.check(t, "csv", ev) || !mp.check(t, "metrics", ev) {
			return
		}
	}
}

// traceRecord is one JSONL line decoded by encoding/json.
type traceRecord struct {
	TUs   float64 `json:"t_us"`
	Ev    string  `json:"ev"`
	Scope string  `json:"scope"`
	Flow  int64   `json:"flow"`
	Seq   int64   `json:"seq"`
	Bytes int64   `json:"bytes"`
	Val   float64 `json:"val"`
	Aux   float64 `json:"aux"`
	Aux2  float64 `json:"aux2"`
}

// TestSinksEscapeScope feeds names the line formats cannot carry
// verbatim and reads every output back with encoding/json and
// encoding/csv.
func TestSinksEscapeScope(t *testing.T) {
	for _, scope := range []string{`h"1\,x`, "a\nb", "tab\tx\x01\x1f", "é->ü", "cr\rlf\n", `"`, ","} {
		ev := Event{T: 1500 * sim.Nanosecond, Type: EvDataEnq, Scope: scope, Flow: 3, Seq: 4,
			Bytes: 1538, Val: 3076, Aux: 1}

		var jb bytes.Buffer
		js := NewJSONLSink(&jb)
		js.Record(ev)
		if err := js.Close(); err != nil {
			t.Fatal(err)
		}
		var rec traceRecord
		if err := json.Unmarshal(jb.Bytes(), &rec); err != nil {
			t.Errorf("scope %q: JSONL line %q does not parse: %v", scope, jb.Bytes(), err)
		} else if rec.Scope != scope || rec.Flow != 3 || rec.Val != 3076 {
			t.Errorf("scope %q: JSONL read back as %+v", scope, rec)
		}

		var cb bytes.Buffer
		cs := NewCSVSink(&cb)
		cs.Record(ev)
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(&cb).ReadAll()
		if err != nil || len(rows) != 2 || len(rows[1]) != 9 || rows[1][2] != scope || rows[1][6] != "3076" {
			t.Errorf("scope %q: CSV trace read back as %q (err %v)", scope, rows, err)
		}

		var mb bytes.Buffer
		rt := NewRuntime(Config{MetricsOut: &mb})
		rt.WriteRow(ev.T, scope, "port/"+scope+"/qbytes", 3076)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		rows, err = csv.NewReader(&mb).ReadAll()
		if err != nil || len(rows) != 2 || len(rows[1]) != 4 ||
			rows[1][1] != scope || rows[1][2] != "port/"+scope+"/qbytes" || rows[1][3] != "3076" {
			t.Errorf("scope %q: metrics CSV read back as %q (err %v)", scope, rows, err)
		}
	}
}

func TestEncodersSteadyStateZeroAlloc(t *testing.T) {
	ev := Event{T: 1234567890, Type: EvFeedback, Scope: "h1", Flow: 3, Val: 2.42, Aux: 0.03125, Aux2: 0.125}
	js := NewJSONLSink(io.Discard)
	cs := NewCSVSink(io.Discard)
	rt := NewRuntime(Config{MetricsOut: io.Discard})
	for name, record := range map[string]func(){
		"jsonl":   func() { js.Record(ev) },
		"csv":     func() { cs.Record(ev) },
		"metrics": func() { rt.WriteRow(ev.T, "r0", "flow/3/rate", ev.Val) },
	} {
		if n := testing.AllocsPerRun(1000, record); n != 0 {
			t.Errorf("%s: %v allocs per record, want 0", name, n)
		}
	}
}

// BenchmarkSinkRecord reports the per-record cost of each text encoder
// on the schema corpus, with picosecond-resolution timestamps as a
// running trace has them.
func BenchmarkSinkRecord(b *testing.B) {
	evs := fixedEvents()
	for i := range evs {
		evs[i].T += sim.Time(i) * 7919
	}
	b.Run("jsonl", func(b *testing.B) {
		s := NewJSONLSink(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Record(evs[i%len(evs)])
		}
	})
	b.Run("csv", func(b *testing.B) {
		s := NewCSVSink(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Record(evs[i%len(evs)])
		}
	})
	b.Run("metrics", func(b *testing.B) {
		rt := NewRuntime(Config{MetricsOut: io.Discard})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev := &evs[i%len(evs)]
			rt.WriteRow(ev.T, "r0", ev.Scope, ev.Val)
		}
	})
}

func fuzzEvent(ts, flow, seq, nbytes int64, val, aux, aux2 float64, scope string) Event {
	return Event{T: sim.Time(ts), Type: EventType(uint64(seq) % uint64(numEventTypes)), Scope: scope,
		Flow: flow, Seq: seq, Bytes: unit.Bytes(nbytes), Val: val, Aux: aux, Aux2: aux2}
}

// finite replaces NaN and ±Inf, which JSON cannot carry, with zero.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzJSONLRecord and FuzzCSVRecord replay the seed corpus under
// testdata/fuzz on every test run; `make fuzz` explores beyond it. Any
// input must encode its numbers exactly as the reference does; a scope
// the format carries verbatim must match the reference byte for byte,
// and any other scope must read back intact through encoding/json or
// encoding/csv.
func FuzzJSONLRecord(f *testing.F) {
	p, record := jsonlPair()
	f.Fuzz(func(t *testing.T, ts, flow, seq, nbytes int64, val, aux, aux2 float64, scope string) {
		ev := fuzzEvent(ts, flow, seq, nbytes, val, aux, aux2, scope)
		plain := ev
		plain.Scope = "x"
		record(plain)
		refJSONL(p.ref, plain)
		if !p.check(t, "numbers", plain) {
			return
		}
		if utf8.ValidString(scope) && !strings.ContainsAny(scope, "\"\\") &&
			strings.IndexFunc(scope, func(r rune) bool { return r < 0x20 }) < 0 {
			record(ev)
			refJSONL(p.ref, ev)
			p.check(t, "plain scope", ev)
			return
		}
		ev.Val, ev.Aux, ev.Aux2 = finite(ev.Val), finite(ev.Aux), finite(ev.Aux2)
		record(ev)
		p.flushGot()
		line := append([]byte(nil), p.got.Bytes()...)
		p.got.Reset()
		var rec traceRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %q does not parse: %v", line, err)
		}
		// encoding/json carries invalid UTF-8 as U+FFFD per bad byte;
		// its own round trip of scope is the expected value.
		quoted, _ := json.Marshal(scope)
		var wantScope string
		if err := json.Unmarshal(quoted, &wantScope); err != nil {
			t.Fatal(err)
		}
		if !sameFloat(rec.TUs, ev.T.Micros()) || rec.Ev != ev.Type.String() || rec.Scope != wantScope ||
			rec.Flow != ev.Flow || rec.Seq != ev.Seq || rec.Bytes != int64(ev.Bytes) ||
			!sameFloat(rec.Val, ev.Val) || !sameFloat(rec.Aux, ev.Aux) || !sameFloat(rec.Aux2, ev.Aux2) {
			t.Fatalf("line %q read back as %+v, want %+v", line, rec, ev)
		}
	})
}

func FuzzCSVRecord(f *testing.F) {
	p, record := csvPair()
	f.Fuzz(func(t *testing.T, ts, flow, seq, nbytes int64, val, aux, aux2 float64, scope string) {
		ev := fuzzEvent(ts, flow, seq, nbytes, val, aux, aux2, scope)
		plain := ev
		plain.Scope = "x"
		record(plain)
		refCSV(p.ref, plain)
		p.ref.Flush()
		want := strings.Split(strings.TrimSuffix(p.want.String(), "\n"), ",")
		if !p.check(t, "numbers", plain) {
			return
		}
		if !strings.ContainsAny(scope, ",\"\r\n") {
			record(ev)
			refCSV(p.ref, ev)
			p.check(t, "plain scope", ev)
			return
		}
		record(ev)
		p.flushGot()
		line := p.got.String()
		p.got.Reset()
		r := csv.NewReader(strings.NewReader(CSVHeader + line))
		r.FieldsPerRecord = 9
		rows, err := r.ReadAll()
		if err != nil || len(rows) != 2 {
			t.Fatalf("line %q does not parse as one 9-field row: %q (err %v)", line, rows, err)
		}
		// encoding/csv folds a CRLF inside a quoted field to LF.
		want[2] = strings.ReplaceAll(scope, "\r\n", "\n")
		for i, field := range rows[1] {
			if field != want[i] {
				t.Fatalf("line %q field %d read back as %q, want %q", line, i, field, want[i])
			}
		}
	})
}
