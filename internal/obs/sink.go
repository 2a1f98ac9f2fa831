package obs

import (
	"io"
	"strconv"
)

// JSONLSink encodes each event as one JSON object per line. The schema
// is flat and fixed — every line carries the same nine keys in the same
// order — so downstream tooling (jq, pandas.read_json(lines=True)) can
// consume a trace without per-type handling:
//
//	{"t_us":12.345,"ev":"credit_drop","scope":"tor->h3","flow":7,
//	 "seq":123,"bytes":84,"val":3,"aux":0,"aux2":0}
//
// The encoder is hand-rolled: encoding/json reflection would dominate
// the cost of tracing-enabled runs, and the golden-file test pins this
// exact byte format as the schema contract. Each record is built in one
// append pass into a reused line buffer and written with a single
// bufio Write. Numbers print as strconv's shortest 'g' form; integer
// values and t_us below one second take exact fast paths that skip the
// shortest-float search (see appendNum and appendMicros). Scope is
// JSON-escaped, and a scope with nothing to escape is copied verbatim.
type JSONLSink struct{ lineWriter }

// NewJSONLSink writes JSON lines to w. If w is an io.Closer it is
// closed by Close (after the buffer is flushed).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{newLineWriter(w, "")}
}

func (s *JSONLSink) Record(ev Event) {
	b := s.line()
	b = append(b, `{"t_us":`...)
	b = appendMicros(b, ev.T)
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Type.String()...)
	b = append(b, `","scope":"`...)
	b = appendJSONString(b, ev.Scope)
	b = append(b, `","flow":`...)
	b = strconv.AppendInt(b, ev.Flow, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, ev.Seq, 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, int64(ev.Bytes), 10)
	b = append(b, `,"val":`...)
	b = appendNum(b, ev.Val)
	b = append(b, `,"aux":`...)
	b = appendNum(b, ev.Aux)
	b = append(b, `,"aux2":`...)
	b = appendNum(b, ev.Aux2)
	s.write(append(b, "}\n"...))
}

// CSVHeader is the column row a CSVSink emits before its first record
// — exported so a RotatingWriter can re-emit it at each segment start.
const CSVHeader = "t_us,ev,scope,flow,seq,bytes,val,aux,aux2\n"

// CSVSink encodes events as CSV with a fixed header, one row per event
// — the same columns and number formats as the JSONL schema, for
// spreadsheet-style tools. Scope is quoted per RFC 4180 when it holds a
// comma, quote or line break.
type CSVSink struct{ lineWriter }

// NewCSVSink writes CSV rows to w (header emitted on first record).
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{newLineWriter(w, CSVHeader)}
}

func (s *CSVSink) Record(ev Event) {
	b := appendMicros(s.line(), ev.T)
	b = append(b, ',')
	b = append(b, ev.Type.String()...)
	b = append(b, ',')
	b = appendCSVField(b, ev.Scope)
	b = append(b, ',')
	b = strconv.AppendInt(b, ev.Flow, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, ev.Seq, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(ev.Bytes), 10)
	b = append(b, ',')
	b = appendNum(b, ev.Val)
	b = append(b, ',')
	b = appendNum(b, ev.Aux)
	b = append(b, ',')
	b = appendNum(b, ev.Aux2)
	s.write(append(b, '\n'))
}

// RingSink keeps the last N events in memory — the sink tests and
// debugging sessions use to make assertions about what a component
// emitted without any I/O.
type RingSink struct {
	evs   []Event
	next  int
	total uint64
	full  bool
}

// NewRingSink returns a sink retaining the most recent capacity events.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 1024
	}
	return &RingSink{evs: make([]Event, capacity)}
}

func (s *RingSink) Record(ev Event) {
	s.evs[s.next] = ev
	s.next++
	s.total++
	if s.next == len(s.evs) {
		s.next = 0
		s.full = true
	}
}

// Close is a no-op (the ring stays readable).
func (s *RingSink) Close() error { return nil }

// Total returns the number of events ever recorded.
func (s *RingSink) Total() uint64 { return s.total }

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	if !s.full {
		return append([]Event(nil), s.evs[:s.next]...)
	}
	out := make([]Event, 0, len(s.evs))
	out = append(out, s.evs[s.next:]...)
	return append(out, s.evs[:s.next]...)
}

// CountType returns how many retained events have the given type.
func (s *RingSink) CountType(ty EventType) int {
	n := 0
	for _, ev := range s.Events() {
		if ev.Type == ty {
			n++
		}
	}
	return n
}
