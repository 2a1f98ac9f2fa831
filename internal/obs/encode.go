package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"expresspass/internal/sim"
)

// lineWriter is the output half shared by the text encoders (JSONLSink,
// CSVSink and the Runtime's metrics CSV): each line is appended into
// one reused buffer and handed to the bufio.Writer with a single Write.
// The buffer starts nil and grows on the first line, so building a sink
// costs no more than its bufio.Writer.
type lineWriter struct {
	w    *bufio.Writer
	c    io.Closer // closed on Close when the target is a file
	err  error     // first write error, latched
	buf  []byte
	head string // written once, ahead of the first line
}

func newLineWriter(w io.Writer, head string) lineWriter {
	l := lineWriter{w: bufio.NewWriterSize(w, 1<<16), head: head}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	return l
}

// line returns the reused buffer emptied, or holding the header before
// the first line.
func (l *lineWriter) line() []byte {
	b := append(l.buf[:0], l.head...)
	l.head = ""
	return b
}

// write hands one finished line to the bufio.Writer and keeps b (which
// may have grown) for the next line. bufio latches the first underlying
// write error and every later Write returns it, so one check per line
// catches a flush failure during this line or an earlier one.
func (l *lineWriter) write(b []byte) {
	l.buf = b
	if _, err := l.w.Write(b); err != nil && l.err == nil {
		l.err = err
	}
}

// Err returns the first write error encountered, if any. Sinks keep
// accepting Record calls after a failure (the simulation must not
// crash mid-run over a full disk), but the error is latched and
// reported here and from Close.
func (l *lineWriter) Err() error { return l.err }

// Close flushes buffered lines (and closes the underlying file, if
// any), returning the first error seen across the writer's lifetime.
func (l *lineWriter) Close() error {
	err := l.err
	if ferr := l.w.Flush(); err == nil {
		err = ferr
	}
	if l.c != nil {
		if cerr := l.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// appendNum appends v exactly as strconv.AppendFloat(b, v, 'g', -1, 64)
// would. Integer values in (-1e6, 1e6), other than -0, take the
// AppendInt path: their shortest decimal is the integer itself, and 'g'
// prints exponents below 6 in plain form.
func appendNum(b []byte, v float64) []byte {
	if v > -1e6 && v < 1e6 {
		if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendMicros appends t.Micros() exactly as appendNum would. For
// 100 ps <= t < 1 s it writes the decimal t/1e6 directly: float64(t) is
// exact, the division is correctly rounded, and a decimal of at most 12
// significant digits is the shortest one that round-trips (any other
// decimal differs by at least 1e-6, far above the double's spacing
// below 1e6), while its exponent lies in [-4, 6), where 'g' prints the
// plain form.
func appendMicros(b []byte, t sim.Time) []byte {
	if t < 100 || t >= sim.Second {
		return appendNum(b, t.Micros())
	}
	// Digits are written right to left into d: up to six of the
	// fraction (trailing zeros dropped), the point, then the integer
	// part, which is below 1e6.
	var d [13]byte
	i := len(d)
	v := uint64(t)
	whole, frac := v/1e6, v%1e6
	if frac != 0 {
		n := 6
		for frac%10 == 0 {
			frac /= 10
			n--
		}
		for ; n > 0; n-- {
			i--
			d[i] = byte('0' + frac%10)
			frac /= 10
		}
		i--
		d[i] = '.'
	}
	for {
		i--
		d[i] = byte('0' + whole%10)
		if whole /= 10; whole == 0 {
			return append(b, d[i:]...)
		}
	}
}

// appendJSONString appends s as the contents of a JSON string. A string
// with nothing to escape (the common case: node and port names) is
// copied verbatim after one scan.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			return appendJSONEscaped(b, s)
		}
	}
	return append(b, s...)
}

// appendJSONEscaped escapes quotes, backslashes and control characters,
// and replaces each byte of invalid UTF-8 with U+FFFD, as encoding/json
// does.
func appendJSONEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 {
				b = append(b, `\ufffd`...)
			} else {
				b = append(b, s[i:i+n]...)
			}
			i += n
			continue
		}
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '\r':
			b = append(b, `\r`...)
		case c == '\t':
			b = append(b, `\t`...)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
		i++
	}
	return b
}

// appendCSVField appends s as one CSV field, quoted per RFC 4180 when
// it holds a comma, quote or line break, and verbatim otherwise.
func appendCSVField(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '"' || c == '\n' || c == '\r' {
			return appendCSVQuoted(b, s)
		}
	}
	return append(b, s...)
}

func appendCSVQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, s[i])
	}
	return append(b, '"')
}
