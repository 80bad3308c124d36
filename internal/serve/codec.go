package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The request codec of the two numeric bodies, POST /v1/predict and
// POST /v1/datasets/{id}/append. Reflection-driven encoding/json spent
// nearly all of a predict's handler time decoding its numbers; this
// codec reads the body once, checks the JSON grammar as it goes, and
// parses each number with strconv straight into the []int32 and
// []float64 that Registry.Predict and data.Handle.Append take.
//
// It accepts exactly the bodies json.NewDecoder(body).Decode accepts
// into predictRequest and appendRequest, and yields the same values
// (FuzzPredictBody and FuzzAppendBody check both against
// encoding/json). That takes encoding/json's rules, odd corners
// included:
//
//   - a key selects a field by exact name, else case-insensitively
//     under Unicode simple folding ("Indices", or "values" spelt
//     with a long s, U+017F); other keys are skipped, their values
//     still checked for syntax;
//   - null sets a slice to nil and leaves a string, a number, an
//     array element or a struct as it was;
//   - a repeated key decodes again into what the earlier one left:
//     slices are refilled in place, growing like append, reusing the
//     elements their backing arrays still hold, and cut to the new
//     length; an empty array gives an empty, non-nil slice;
//   - strings unescape \uXXXX (surrogate pairs joined, lone ones
//     replaced) and replace invalid UTF-8 with U+FFFD;
//   - an int32 takes only integers in range ("1.0" and 2147483648 are
//     errors), and a float64 overflow such as 1e400 is an error;
//   - nesting deeper than 10000 containers is an error;
//   - the top-level value may be null (an empty request), and bytes
//     after the top-level value are not parsed.
//
// The one difference is the body cap: the codec reads the whole body,
// so a body over the cap is a 413 even when its JSON value ends before
// the cap, where encoding/json would stop reading at the value's end.
//
// The predict answer is written by appendPredictAnswer, byte for byte
// what json.NewEncoder(w).Encode(predictResponse{...}) writes.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// decoder reads one request body. Its scratch slices are reused across
// requests through codecPool; nothing a decode returns aliases them or
// the body.
type decoder struct {
	b     []byte
	i     int
	depth int
	// unq holds the last string that needed unescaping; floats and ints
	// gather the elements of a freshly decoded number array.
	unq    []byte
	floats []float64
	ints   []int32
}

// codecBuf is a pooled body buffer and decoder plus the buffer the
// answer is encoded into.
type codecBuf struct {
	decoder
	out []byte
}

// maxPooled caps the buffers returned to codecPool, so one huge body
// does not pin its memory for the life of the process.
const maxPooled = 1 << 20

var codecPool = sync.Pool{New: func() any { return new(codecBuf) }}

func getCodecBuf() *codecBuf { return codecPool.Get().(*codecBuf) }

func putCodecBuf(cb *codecBuf) {
	if cap(cb.b) > maxPooled || cap(cb.out) > maxPooled ||
		cap(cb.floats) > maxPooled/8 || cap(cb.ints) > maxPooled/4 || cap(cb.unq) > maxPooled {
		return
	}
	codecPool.Put(cb)
}

// readBody reads all of r into cb's body buffer and resets the decoder
// over it. sizeHint is the request's Content-Length (<= 0 if unknown).
func (cb *codecBuf) readBody(r io.Reader, sizeHint int64) error {
	b := cb.b[:0]
	if sizeHint > 0 && sizeHint < maxPooled && int(sizeHint) >= cap(b) {
		b = make([]byte, 0, sizeHint+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			cb.b = b
			return err
		}
	}
	cb.b, cb.i, cb.depth = b, 0, 0
	return nil
}

// predict decodes a predict request body.
func (d *decoder) predict(req *predictRequest) error {
	return d.top(func() error {
		return d.object(func(key []byte) error {
			switch fieldIndex(key, predictFields) {
			case 0:
				return d.stringField(&req.Model, "model")
			case 1:
				return fillSlice(d, &req.Examples, "examples", func(ex *exampleJSON) error {
					return d.row(&ex.Indices, &ex.Values, &ex.Dense, nil)
				})
			}
			return d.skip()
		})
	})
}

// appendRows decodes an append request body.
func (d *decoder) appendRows(req *appendRequest) error {
	return d.top(func() error {
		return d.object(func(key []byte) error {
			switch fieldIndex(key, appendFields) {
			case 0:
				return fillSlice(d, &req.Rows, "rows", func(row *appendRowJSON) error {
					return d.row(&row.Indices, &row.Values, &row.Dense, &row.Label)
				})
			case 1:
				return numberInto(d, &req.Cols, "cols", parseInt)
			case 2:
				return d.stringField(&req.Task, "task")
			}
			return d.skip()
		})
	})
}

// The JSON names of the decoded structs' fields, in the order the
// decode switches number them.
var (
	predictFields = []string{"model", "examples"}
	appendFields  = []string{"rows", "cols", "task"}
	exampleFields = []string{"indices", "values", "dense"}
	rowFields     = []string{"indices", "values", "dense", "label"}
)

// fieldIndex returns the index in names of the field key selects, or
// -1: encoding/json's rule of an exact match, else a case-insensitive
// one under Unicode simple folding (the names differ under folding, so
// the order of the two tests does not matter).
func fieldIndex(key []byte, names []string) int {
	for k, name := range names {
		if string(key) == name {
			return k
		}
	}
	for k, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return k
		}
	}
	return -1
}

// row decodes one predict example or append row: an object, or null,
// which leaves the element as it was. label is nil for examples.
func (d *decoder) row(idx *[]int32, vals, dense *[]float64, label *float64) error {
	switch d.cur() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("an example")
	}
	names := exampleFields
	if label != nil {
		names = rowFields
	}
	return d.object(func(key []byte) error {
		switch fieldIndex(key, names) {
		case 0:
			return numberSlice(d, idx, &d.ints, "indices", parseInt32)
		case 1:
			return numberSlice(d, vals, &d.floats, "values", parseFloat64)
		case 2:
			return numberSlice(d, dense, &d.floats, "dense", parseFloat64)
		case 3:
			return numberInto(d, label, "label", parseFloat64)
		}
		return d.skip()
	})
}

// top decodes the top-level value: obj reads an object, null leaves the
// request empty, anything else is an error. Nothing after the value is
// read.
func (d *decoder) top(obj func() error) error {
	switch d.peek() {
	case '{':
		return obj()
	case 'n':
		return d.literal("null")
	}
	if d.i >= len(d.b) {
		return io.EOF
	}
	return d.mismatch("a request object")
}

// fillSlice decodes an array into *dst the way encoding/json fills a
// slice that may already hold a repeated key's elements: element i
// reuses what the backing array holds there, also past len when the
// capacity allows, the slice grows one element at a time like append,
// and it ends cut to the elements read, an empty array giving a fresh
// empty slice. null sets *dst to nil. elem decodes one element in
// place, starting at its first byte.
func fillSlice[T any](d *decoder, dst *[]T, name string, elem func(*T) error) error {
	switch d.cur() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return d.mismatch(name)
	}
	s := *dst
	n := 0
	err := d.array(func() error {
		if n >= cap(s) {
			var zero T
			s = append(s, zero)
		} else if n >= len(s) {
			s = s[:n+1]
		}
		n++
		return elem(&s[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return nil
}

// numberSlice decodes an array of numbers, or null, into *dst with
// fillSlice's rules, each element as numberInto does. A decode into a
// slice with no backing array has no elements to reuse, so it gathers
// into scratch and copies out at the exact length. Capacity never
// changes what a later refill reads: either way, each element past len
// holds the last value written there, or zero.
func numberSlice[T int32 | float64](d *decoder, dst *[]T, scratch *[]T, name string, parse func([]byte) (T, error)) error {
	elem := func(v *T) error { return numberInto(d, v, name, parse) }
	if cap(*dst) > 0 || d.cur() != '[' {
		return fillSlice(d, dst, name, elem)
	}
	s := (*scratch)[:0]
	err := d.array(func() error {
		var zero T
		s = append(s, zero)
		return elem(&s[len(s)-1])
	})
	*scratch = s
	if err != nil {
		return err
	}
	*dst = append(make([]T, 0, len(s)), s...)
	return nil
}

// numberInto decodes a number into *dst, parse converting its text, or
// null, which leaves *dst as it was.
func numberInto[T int | int32 | float64](d *decoder, dst *T, name string, parse func([]byte) (T, error)) error {
	switch c := d.cur(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		tok, err := d.number()
		if err != nil {
			return err
		}
		v, err := parse(tok)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		*dst = v
		return nil
	}
	return d.mismatch(name)
}

func parseFloat64(tok []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("cannot decode number %s into float64", tok)
	}
	return v, nil
}

func parseInt32(tok []byte) (int32, error) {
	v, err := strconv.ParseInt(string(tok), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("cannot decode number %s into int32", tok)
	}
	return int32(v), nil
}

func parseInt(tok []byte) (int, error) {
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return 0, fmt.Errorf("cannot decode number %s into int", tok)
	}
	return int(v), nil
}

// stringField decodes a string, or null, which leaves *dst as it was.
func (d *decoder) stringField(dst *string, name string) error {
	switch d.cur() {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	}
	return d.mismatch(name)
}

// The grammar. Each reader starts at the first byte of its token (the
// callers skip whitespace) and leaves d.i just past it.

// cur returns the byte at d.i, or 0 at the end of the body.
func (d *decoder) cur() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// syntaxErr reports the byte at d.i as unexpected, or the body as
// truncated.
func (d *decoder) syntaxErr(context string) error {
	if d.i >= len(d.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.b[d.i], context, d.i)
}

// mismatch reports a value of the wrong type for into, or a syntax
// error if no value starts at d.i.
func (d *decoder) mismatch(into string) error {
	var kind string
	switch c := d.cur(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == 'n':
		kind = "null"
	case c == '-' || isDigit(c):
		kind = "number"
	default:
		return d.syntaxErr("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s at offset %d into %s", kind, d.i, into)
}

func (d *decoder) push() error {
	d.depth++
	if d.depth > maxDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.i)
	}
	return nil
}

// object reads an object, handing each key to field, which must read
// the key's value. key is valid only until field reads a string.
func (d *decoder) object(field func(key []byte) error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.i++ // '{'
	if d.peek() == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxErr("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntaxErr("after object key")
		}
		d.i++
		d.peek()
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.syntaxErr("after object key:value pair")
		}
	}
}

// array reads an array, calling elem for each element.
func (d *decoder) array(elem func() error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.i++ // '['
	if d.peek() == ']' {
		d.i++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
			d.peek()
		case ']':
			d.i++
			d.depth--
			return nil
		default:
			return d.syntaxErr("after array element")
		}
	}
}

// skip reads any value without keeping it.
func (d *decoder) skip() error {
	switch c := d.cur(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.syntaxErr("looking for beginning of value")
}

func (d *decoder) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if d.cur() != word[k] {
			return d.syntaxErr("in literal " + word)
		}
		d.i++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// number reads a number and returns its text, which strconv parses as
// JSON means it.
func (d *decoder) number() ([]byte, error) {
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.i = i
		return nil, d.syntaxErr("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			d.i = i
			return nil, d.syntaxErr("after decimal point in numeric literal")
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.i = i
			return nil, d.syntaxErr("in exponent of numeric literal")
		}
		i = digits(b, i+1)
	}
	d.i = i
	return b[start:i], nil
}

// str reads a string and returns its unescaped bytes, which alias the
// body or d.unq.
func (d *decoder) str() ([]byte, error) {
	d.i++ // opening quote
	start := d.i
	plain := true
	for {
		c := d.cur()
		switch {
		case d.i >= len(d.b):
			return nil, io.ErrUnexpectedEOF
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			if plain || utf8.Valid(s) && bytes.IndexByte(s, '\\') < 0 {
				return s, nil
			}
			d.unq = unquote(d.unq[:0], s)
			return d.unq, nil
		case c == '\\':
			plain = false
			d.i++
			switch d.cur() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				for k := 0; k < 4; k++ {
					if _, ok := hexDigit(d.cur()); !ok {
						return nil, d.syntaxErr("in \\u hexadecimal character escape")
					}
					d.i++
				}
			default:
				return nil, d.syntaxErr("in string escape code")
			}
		case c < ' ':
			return nil, d.syntaxErr("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.i++
		}
	}
}

func hexDigit(c byte) (rune, bool) {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0'), true
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10), true
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10), true
	}
	return 0, false
}

// hex4 decodes the four hex digits of a \u escape at s[2:6], or -1 if
// s does not start with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		v, ok := hexDigit(c)
		if !ok {
			return -1
		}
		r = r*16 + v
	}
	return r
}

// unquote appends the unescaped form of s, the inside of a string
// whose escapes str has checked, to t: escapes decoded, surrogate
// pairs joined, lone surrogates and invalid UTF-8 replaced with U+FFFD.
func unquote(t, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				t = append(t, '\b')
			case 'f':
				t = append(t, '\f')
			case 'n':
				t = append(t, '\n')
			case 'r':
				t = append(t, '\r')
			case 't':
				t = append(t, '\t')
			case 'u':
				rr := hex4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, hex4(s[r:])); dec != utf8.RuneError {
						r += 6
						t = utf8.AppendRune(t, dec)
						continue
					}
					rr = utf8.RuneError
				}
				t = utf8.AppendRune(t, rr)
				continue
			default: // '"', '\\', '/'
				t = append(t, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			t = append(t, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			t = utf8.AppendRune(t, rr)
			r += size
		}
	}
	return t
}

// appendPredictAnswer appends the predict answer to b exactly as
// json.NewEncoder(w).Encode(predictResponse{...}) writes it, trailing
// newline included. JSON has no NaN or infinity, so a non-finite
// prediction is an error naming the first such example.
func appendPredictAnswer(b []byte, model string, preds []float64) ([]byte, error) {
	b = append(b, `{"model":`...)
	b = appendJSONString(b, model)
	b = append(b, `,"predictions":`...)
	if preds == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range preds {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return b, fmt.Errorf("prediction for example %d is %v, which JSON cannot carry", i, p)
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, p)
		}
		b = append(b, ']')
	}
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(preds)), 10)
	return append(b, '}', '\n'), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does: like
// ES6, shortest round-trip digits, exponent form below 1e-6 and from
// 1e21 on, with no leading zero in a negative exponent.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString quotes s as encoding/json does with HTML escaping
// on: <, > and & as \u003c, \u003e and \u0026, control bytes as short
// escapes where JSON has one and \u00XX otherwise, invalid UTF-8
// as \ufffd, and U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
