// The REST surface's one codec for its hot JSON shapes: the listing page,
// the mutation result (alone and as a batch's array), the two batch
// requests, the batch-get result, the transaction's request and reply
// (the batches' members under one roof) and the error envelope. The
// controller (rest.go) and internal/client both go through it, so the
// two ends of the hop cannot drift.
//
// Encoders append into the caller's buffer and produce, byte for byte,
// what encoding/json produces for the same value; there is no fallback.
// Decoders parse the canonical form — what the encoders emit, plus
// insignificant whitespace, the standard escapes, members in any order
// and skipped unknown members — without reflection. On anything else
// they decline without having touched the value, and the same bytes go
// to encoding/json (decodeFallback), which stays the definition of what
// is accepted and of every error text.
package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// RESTShape is a value of one of the codec's shapes: *ScanPage,
// *OpResult, *BatchPutReply, *BatchGetReply, *BatchPutRequest,
// *BatchGetRequest, *TxRequest, *TxReply, *ErrorReply.
type RESTShape interface {
	appendJSON(dst []byte) []byte
	// parseJSON decodes the parser's whole input into the receiver, or
	// reports false leaving the receiver as it was.
	parseJSON(p *jsonParser) bool
}

// BatchPutRequest is the body of POST /v2/batch/put.
type BatchPutRequest struct {
	Ops []BatchPutOp `json:"ops"`
}

// BatchGetRequest is the body of POST /v2/batch/get.
type BatchGetRequest struct {
	Keys []JSONKey `json:"keys"`
}

// BatchPutReply answers a batch put: one result per op, in order.
type BatchPutReply struct {
	Results []OpResult `json:"results"`
}

// BatchGetReply answers a batch get: one result per key, in order.
type BatchGetReply struct {
	Results []BatchGetResult `json:"results"`
}

// TxRequest is the body of POST /v2/tx: the keys a transaction reads and
// the writes it makes — the members of the two batch requests.
type TxRequest struct {
	Keys []JSONKey    `json:"keys"`
	Ops  []BatchPutOp `json:"ops"`
}

// TxReply answers a committed transaction: one result per read key and
// one per write, each in request order.
type TxReply struct {
	Reads  []BatchGetResult `json:"reads"`
	Writes []OpResult       `json:"writes"`
}

// ErrorReply is the envelope every route fails in.
type ErrorReply struct {
	Error WireError `json:"error"`
}

// AppendREST appends v's JSON to dst.
func AppendREST(dst []byte, v RESTShape) []byte { return v.appendJSON(dst) }

// decodeREST decodes data, one JSON document, into v: by hand if it is
// in the canonical form, else through encoding/json.
func decodeREST(data []byte, v RESTShape) error {
	if v.parseJSON(&jsonParser{buf: data}) {
		return nil
	}
	return decodeFallback(data, v)
}

// decodeFallback decodes what the hand parsers declined. A Decoder, not
// Unmarshal: it is what both ends of the hop ran on the stream before
// bodies were buffered, and the two word a truncated document differently.
func decodeFallback(data []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// ReadREST reads r to its end — size bytes if size is not negative —
// into a pooled buffer, once, and decodes v from it.
func ReadREST(r io.Reader, size int64, v RESTShape) error {
	bp := getBuf(size)
	defer putBuf(bp)
	var err error
	if *bp, err = readAll(r, *bp); err != nil {
		return err
	}
	return decodeREST(*bp, v)
}

// bodyBufs recycles the buffers replies are encoded into and bodies are
// read into. Nothing decoded refers into one: strings and values are
// copied out.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// maxPooledBody bounds both what is allocated on a declared length alone
// and what is kept: a larger body grows its buffer as the bytes arrive
// and leaves it to the collector.
const maxPooledBody = 1 << 20

// getBuf returns an empty buffer, with room for size bytes when size is
// a plausible length.
func getBuf(size int64) *[]byte {
	bp := bodyBufs.Get().(*[]byte)
	if size > int64(cap(*bp)) && size <= maxPooledBody {
		// Rounded up, so the pool converges on a few sizes.
		*bp = make([]byte, 0, 1<<bits.Len64(uint64(size-1)))
	}
	return bp
}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		*bp = (*bp)[:0]
		bodyBufs.Put(bp)
	}
}

// readAll appends r's bytes to b until EOF. A net/http body reports EOF
// together with its last bytes, so a buffer of the declared length is
// filled without growing.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// ---- encoders ----

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json writes a string: <, >, & and
// U+2028/9 escaped, invalid UTF-8 replaced by U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendKey appends a key under the JSONKey rule: a plain string when
// the key is valid UTF-8, {"b64":"…"} otherwise.
func appendKey(dst []byte, k JSONKey) []byte {
	if utf8.ValidString(string(k)) {
		return appendString(dst, string(k))
	}
	dst = append(dst, `{"b64":"`...)
	dst = base64.StdEncoding.AppendEncode(dst, []byte(k))
	return append(dst, `"}`...)
}

// appendBytes appends a []byte member: base64, null for nil.
func appendBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}

// appendArray appends a slice as a JSON array, null for nil.
func appendArray[T any](dst []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, &s[i])
	}
	return append(dst, ']')
}

func appendWireError(dst []byte, e *WireError) []byte {
	dst = append(dst, `{"code":`...)
	dst = appendString(dst, string(e.Code))
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, e.Message)
	return append(dst, '}')
}

func appendScanEntry(dst []byte, e *ScanEntry) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendKey(dst, e.Key)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, e.Version, 10)
	dst = append(dst, `,"size":`...)
	dst = strconv.AppendInt(dst, e.Size, 10)
	if e.PolicyID != "" {
		dst = append(dst, `,"policy":`...)
		dst = appendString(dst, e.PolicyID)
	}
	if e.Class != "" {
		dst = append(dst, `,"class":`...)
		dst = appendString(dst, e.Class)
	}
	return append(dst, '}')
}

func (v *ScanPage) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"entries":`...)
	dst = appendArray(dst, v.Entries, appendScanEntry)
	if v.NextToken != "" {
		dst = append(dst, `,"nextToken":`...)
		dst = appendString(dst, v.NextToken)
	}
	if v.ShardEpoch != 0 {
		dst = append(dst, `,"shardEpoch":`...)
		dst = strconv.AppendUint(dst, v.ShardEpoch, 10)
	}
	return append(dst, '}')
}

func appendOpResult(dst []byte, r *OpResult) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendKey(dst, r.Key)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, r.Version, 10)
	if r.OpID != 0 {
		dst = append(dst, `,"op":`...)
		dst = strconv.AppendUint(dst, r.OpID, 10)
	}
	if r.Err != nil {
		dst = append(dst, `,"error":`...)
		dst = appendWireError(dst, r.Err)
	}
	return append(dst, '}')
}

func (v *OpResult) appendJSON(dst []byte) []byte { return appendOpResult(dst, v) }

func appendBatchGetResult(dst []byte, r *BatchGetResult) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendKey(dst, r.Key)
	if len(r.Value) > 0 {
		dst = append(dst, `,"value":`...)
		dst = appendBytes(dst, r.Value)
	}
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, r.Version, 10)
	if r.PolicyID != "" {
		dst = append(dst, `,"policy":`...)
		dst = appendString(dst, r.PolicyID)
	}
	if r.Err != nil {
		dst = append(dst, `,"error":`...)
		dst = appendWireError(dst, r.Err)
	}
	return append(dst, '}')
}

func appendBatchPutOp(dst []byte, op *BatchPutOp) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendKey(dst, op.Key)
	dst = append(dst, `,"value":`...)
	dst = appendBytes(dst, op.Value)
	if op.Version != 0 {
		dst = append(dst, `,"version":`...)
		dst = strconv.AppendInt(dst, op.Version, 10)
	}
	if op.HasVersion {
		dst = append(dst, `,"hasVersion":true`...)
	}
	if op.PolicyID != "" {
		dst = append(dst, `,"policy":`...)
		dst = appendString(dst, op.PolicyID)
	}
	return append(dst, '}')
}

func (v *BatchPutReply) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"results":`...)
	dst = appendArray(dst, v.Results, appendOpResult)
	return append(dst, '}')
}

func (v *BatchGetReply) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"results":`...)
	dst = appendArray(dst, v.Results, appendBatchGetResult)
	return append(dst, '}')
}

// opsSize estimates the encoded length of a request made of ops. The two
// requests carrying writes are what is encoded into a fresh buffer (the
// client's request body): sized up front, it is allocated once.
func opsSize(ops []BatchPutOp) int {
	size := len(`{"keys":[],"ops":[]}`)
	for i := range ops {
		op := &ops[i]
		size += 96 + 2*len(op.Key) + base64.StdEncoding.EncodedLen(len(op.Value)) + len(op.PolicyID)
	}
	return size
}

func appendKeys(dst []byte, keys []JSONKey) []byte {
	return appendArray(dst, keys, func(dst []byte, k *JSONKey) []byte { return appendKey(dst, *k) })
}

func (v *BatchPutRequest) appendJSON(dst []byte) []byte {
	dst = slices.Grow(dst, opsSize(v.Ops))
	dst = append(dst, `{"ops":`...)
	dst = appendArray(dst, v.Ops, appendBatchPutOp)
	return append(dst, '}')
}

func (v *BatchGetRequest) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"keys":`...)
	dst = appendKeys(dst, v.Keys)
	return append(dst, '}')
}

func (v *TxRequest) appendJSON(dst []byte) []byte {
	size := opsSize(v.Ops)
	for _, k := range v.Keys {
		size += 16 + 2*len(k)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"keys":`...)
	dst = appendKeys(dst, v.Keys)
	dst = append(dst, `,"ops":`...)
	dst = appendArray(dst, v.Ops, appendBatchPutOp)
	return append(dst, '}')
}

func (v *TxReply) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"reads":`...)
	dst = appendArray(dst, v.Reads, appendBatchGetResult)
	dst = append(dst, `,"writes":`...)
	dst = appendArray(dst, v.Writes, appendOpResult)
	return append(dst, '}')
}

func (v *ErrorReply) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendWireError(dst, &v.Error)
	return append(dst, '}')
}

// ---- decoders ----

// jsonParser is a cursor over one buffered JSON document. Every method
// that returns ok=false means "not the canonical form": the caller
// unwinds and the document goes to encoding/json instead. Declining is
// always safe, so nothing here tries to be complete — only to agree with
// encoding/json on everything it does accept.
type jsonParser struct {
	buf []byte
	pos int
	// scratch holds the one string being unescaped.
	scratch []byte
	// policy and class are the last values seen of the two members that
	// repeat down a listing, shared instead of copied per entry.
	policy, class string
}

func (p *jsonParser) ws() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// lit consumes c, after any whitespace, if it is next.
func (p *jsonParser) lit(c byte) bool {
	p.ws()
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// word consumes the literal w (null, true, false) if it is next.
func (p *jsonParser) word(w string) bool {
	p.ws()
	if len(p.buf)-p.pos >= len(w) && string(p.buf[p.pos:p.pos+len(w)]) == w {
		p.pos += len(w)
		return true
	}
	return false
}

// end reports that only whitespace is left.
func (p *jsonParser) end() bool {
	p.ws()
	return p.pos == len(p.buf)
}

// raw consumes a string literal and returns what is between its quotes,
// undecoded, and whether that contains a backslash. Control bytes are a
// syntax error in a JSON string and decline.
func (p *jsonParser) raw() (b []byte, escaped, ok bool) {
	if !p.lit('"') {
		return nil, false, false
	}
	start := p.pos
	for ; p.pos < len(p.buf); p.pos++ {
		switch c := p.buf[p.pos]; {
		case c == '"':
			p.pos++
			return p.buf[start : p.pos-1], escaped, true
		case c == '\\':
			escaped = true
			p.pos++ // whatever is escaped, a quote included, is not the end
		case c < 0x20:
			return nil, false, false
		}
	}
	return nil, false, false
}

// str consumes a string literal and returns its decoded bytes, which
// alias the buffer or the parser's scratch space: copy before the next
// call. Invalid UTF-8 and surrogate escapes — both of which encoding/json
// repairs to U+FFFD — decline.
func (p *jsonParser) str() ([]byte, bool) {
	b, escaped, ok := p.raw()
	if !ok {
		return nil, false
	}
	if escaped {
		if b, ok = p.unescape(b); !ok {
			return nil, false
		}
	}
	return b, utf8.Valid(b)
}

func (p *jsonParser) unescape(b []byte) ([]byte, bool) {
	out := p.scratch[:0]
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		if i++; i == len(b) {
			return nil, false
		}
		switch b[i] {
		case '"', '\\', '/':
			out = append(out, b[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+4 >= len(b) {
				return nil, false
			}
			r, err := strconv.ParseUint(string(b[i+1:i+5]), 16, 16)
			if err != nil || r >= 0xD800 && r < 0xE000 {
				return nil, false
			}
			out = utf8.AppendRune(out, rune(r))
			i += 4
		default:
			return nil, false
		}
	}
	p.scratch = out
	return out, true
}

// text is str as a string of its own.
func (p *jsonParser) text() (string, bool) {
	b, ok := p.str()
	return string(b), ok
}

// shared is text for a member whose value repeats from one array element
// to the next: *last is returned instead of a copy when it still matches.
func (p *jsonParser) shared(last *string) (string, bool) {
	b, ok := p.str()
	if ok && string(b) != *last {
		*last = string(b)
	}
	return *last, ok
}

// digits consumes an integer's digits: no sign, no leading zero, and —
// checked by whoever consumes the delimiter after it — no fraction or
// exponent.
func (p *jsonParser) digits() ([]byte, bool) {
	start := p.pos
	for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
		p.pos++
	}
	d := p.buf[start:p.pos]
	return d, len(d) > 0 && (d[0] != '0' || len(d) == 1)
}

func (p *jsonParser) int() (int64, bool) {
	p.ws()
	start := p.pos
	if p.pos < len(p.buf) && p.buf[p.pos] == '-' {
		p.pos++
	}
	if _, ok := p.digits(); !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(p.buf[start:p.pos]), 10, 64)
	return n, err == nil
}

func (p *jsonParser) uint() (uint64, bool) {
	p.ws()
	d, ok := p.digits()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(string(d), 10, 64)
	return n, err == nil
}

// b64 consumes a string literal of standard base64 into a slice of its
// own — empty, not nil, for "" — as encoding/json fills a []byte.
func (p *jsonParser) b64() ([]byte, bool) {
	b, escaped, ok := p.raw()
	if !ok || escaped {
		return nil, false
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(b)))
	n, err := base64.StdEncoding.Decode(out, b)
	return out[:n], err == nil
}

// bytes is b64, or nil for null.
func (p *jsonParser) bytes() ([]byte, bool) {
	if p.word("null") {
		return nil, true
	}
	return p.b64()
}

// key consumes an object key in either JSONKey form.
func (p *jsonParser) key() (JSONKey, bool) {
	if !p.lit('{') {
		b, ok := p.str()
		return JSONKey(b), ok
	}
	if name, escaped, ok := p.raw(); !ok || escaped || string(name) != "b64" || !p.lit(':') {
		return "", false
	}
	b, ok := p.b64()
	return JSONKey(b), ok && p.lit('}')
}

// object consumes an object, calling member with the index in names of
// each member it knows, positioned at the member's value. A repeated
// member declines (encoding/json merges the two), as does an unknown one
// that encoding/json's case-folding could still match to a name; any
// other unknown member is skipped.
func (p *jsonParser) object(names []string, member func(i int) bool) bool {
	if !p.lit('{') {
		return false
	}
	if p.lit('}') {
		return true
	}
	seen := 0
	for {
		name, escaped, ok := p.raw()
		if !ok || escaped || !p.lit(':') {
			return false
		}
		i := 0
		for i < len(names) && string(name) != names[i] {
			i++
		}
		if i == len(names) {
			if !skippable(name, names) || !p.skip(0) {
				return false
			}
		} else {
			if seen&(1<<i) != 0 || !member(i) {
				return false
			}
			seen |= 1 << i
		}
		if !p.lit(',') {
			return p.lit('}')
		}
	}
}

// skippable reports whether name, which is none of names, is also none
// of them to encoding/json: that holds for an ASCII name differing from
// each by more than letter case.
func skippable(name []byte, names []string) bool {
	for _, c := range name {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	for _, n := range names {
		if bytes.EqualFold(name, []byte(n)) {
			return false
		}
	}
	return true
}

// maxSkipDepth bounds the nesting of a skipped value; encoding/json's own
// bound is far higher and is its to enforce.
const maxSkipDepth = 32

// skip consumes one well-formed value of any kind.
func (p *jsonParser) skip(depth int) bool {
	p.ws()
	if p.pos == len(p.buf) || depth > maxSkipDepth {
		return false
	}
	switch c := p.buf[p.pos]; {
	case c == '"':
		return p.skipString()
	case c == '{':
		p.pos++
		if p.lit('}') {
			return true
		}
		for {
			if !p.skipString() || !p.lit(':') || !p.skip(depth+1) {
				return false
			}
			if !p.lit(',') {
				return p.lit('}')
			}
		}
	case c == '[':
		p.pos++
		if p.lit(']') {
			return true
		}
		for {
			if !p.skip(depth + 1) {
				return false
			}
			if !p.lit(',') {
				return p.lit(']')
			}
		}
	case c == '-' || c >= '0' && c <= '9':
		return p.number()
	default:
		return p.word("null") || p.word("true") || p.word("false")
	}
}

// skipString consumes a string literal with well-formed escapes.
func (p *jsonParser) skipString() bool {
	b, escaped, ok := p.raw()
	if escaped {
		_, ok = p.unescape(b)
	}
	return ok
}

// number consumes a number of JSON's full grammar.
func (p *jsonParser) number() bool {
	if p.buf[p.pos] == '-' {
		p.pos++
	}
	if _, ok := p.digits(); !ok {
		return false
	}
	if p.pos < len(p.buf) && p.buf[p.pos] == '.' {
		p.pos++
		if !p.anyDigits() {
			return false
		}
	}
	if p.pos < len(p.buf) && (p.buf[p.pos] == 'e' || p.buf[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.buf) && (p.buf[p.pos] == '+' || p.buf[p.pos] == '-') {
			p.pos++
		}
		return p.anyDigits()
	}
	return true
}

// anyDigits consumes one or more digits, leading zeros allowed.
func (p *jsonParser) anyDigits() bool {
	start := p.pos
	for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
		p.pos++
	}
	return p.pos > start
}

// maxArrayHint caps the capacity an array is given before its elements
// are seen, so a body cannot buy memory with a count.
const maxArrayHint = 1024

// parseArray consumes an array of elements elem parses: nil for null,
// empty but not nil for [], as encoding/json fills a slice. each, a byte
// every element or every gap between two brings with it, sizes the slice
// up front.
func parseArray[T any](p *jsonParser, each byte, elem func(*jsonParser, *T) bool) ([]T, bool) {
	if p.word("null") {
		return nil, true
	}
	if !p.lit('[') {
		return nil, false
	}
	out := make([]T, 0, min(bytes.Count(p.buf[p.pos:], []byte{each})+1, maxArrayHint))
	if p.lit(']') {
		return out, true
	}
	for {
		var zero T
		out = append(out, zero)
		if !elem(p, &out[len(out)-1]) {
			return nil, false
		}
		if !p.lit(',') {
			return out, p.lit(']')
		}
	}
}

var (
	wireErrorNames      = []string{"code", "message"}
	scanEntryNames      = []string{"key", "version", "size", "policy", "class"}
	scanPageNames       = []string{"entries", "nextToken", "shardEpoch"}
	opResultNames       = []string{"key", "version", "op", "error"}
	batchGetResultNames = []string{"key", "value", "version", "policy", "error"}
	batchPutOpNames     = []string{"key", "value", "version", "hasVersion", "policy"}
)

// wireError consumes an error member: nil for null.
func (p *jsonParser) wireError() (*WireError, bool) {
	if p.word("null") {
		return nil, true
	}
	e := new(WireError)
	return e, p.object(wireErrorNames, func(i int) (ok bool) {
		var s string
		s, ok = p.text()
		if i == 0 {
			e.Code = ErrorCode(s)
		} else {
			e.Message = s
		}
		return ok
	})
}

func (p *jsonParser) scanEntry(e *ScanEntry) bool {
	return p.object(scanEntryNames, func(i int) (ok bool) {
		switch i {
		case 0:
			e.Key, ok = p.key()
		case 1:
			e.Version, ok = p.int()
		case 2:
			e.Size, ok = p.int()
		case 3:
			e.PolicyID, ok = p.shared(&p.policy)
		case 4:
			e.Class, ok = p.shared(&p.class)
		}
		return ok
	})
}

func (p *jsonParser) opResult(r *OpResult) bool {
	return p.object(opResultNames, func(i int) (ok bool) {
		switch i {
		case 0:
			r.Key, ok = p.key()
		case 1:
			r.Version, ok = p.int()
		case 2:
			r.OpID, ok = p.uint()
		case 3:
			r.Err, ok = p.wireError()
		}
		return ok
	})
}

func (p *jsonParser) batchGetResult(r *BatchGetResult) bool {
	return p.object(batchGetResultNames, func(i int) (ok bool) {
		switch i {
		case 0:
			r.Key, ok = p.key()
		case 1:
			r.Value, ok = p.bytes()
		case 2:
			r.Version, ok = p.int()
		case 3:
			r.PolicyID, ok = p.shared(&p.policy)
		case 4:
			r.Err, ok = p.wireError()
		}
		return ok
	})
}

func (p *jsonParser) batchPutOp(op *BatchPutOp) bool {
	return p.object(batchPutOpNames, func(i int) (ok bool) {
		switch i {
		case 0:
			op.Key, ok = p.key()
		case 1:
			op.Value, ok = p.bytes()
		case 2:
			op.Version, ok = p.int()
		case 3:
			if op.HasVersion = p.word("true"); !op.HasVersion {
				return p.word("false")
			}
			return true
		case 4:
			op.PolicyID, ok = p.shared(&p.policy)
		}
		return ok
	})
}

func (v *ScanPage) parseJSON(p *jsonParser) bool {
	var out ScanPage
	ok := p.object(scanPageNames, func(i int) (ok bool) {
		switch i {
		case 0:
			out.Entries, ok = parseArray(p, '{', (*jsonParser).scanEntry)
		case 1:
			out.NextToken, ok = p.text()
		case 2:
			out.ShardEpoch, ok = p.uint()
		}
		return ok
	})
	return accept(ok && p.end(), v, out)
}

func (v *OpResult) parseJSON(p *jsonParser) bool {
	var out OpResult
	return accept(p.opResult(&out) && p.end(), v, out)
}

func (v *BatchPutReply) parseJSON(p *jsonParser) bool {
	var out BatchPutReply
	ok := p.object(resultsName, func(int) (ok bool) {
		out.Results, ok = parseArray(p, '{', (*jsonParser).opResult)
		return ok
	})
	return accept(ok && p.end(), v, out)
}

func (v *BatchGetReply) parseJSON(p *jsonParser) bool {
	var out BatchGetReply
	ok := p.object(resultsName, func(int) (ok bool) {
		out.Results, ok = parseArray(p, '{', (*jsonParser).batchGetResult)
		return ok
	})
	return accept(ok && p.end(), v, out)
}

func (v *BatchPutRequest) parseJSON(p *jsonParser) bool {
	var out BatchPutRequest
	ok := p.object(opsName, func(int) (ok bool) {
		out.Ops, ok = parseArray(p, '{', (*jsonParser).batchPutOp)
		return ok
	})
	return accept(ok && p.end(), v, out)
}

// keys consumes an array of object keys.
func (p *jsonParser) keys() ([]JSONKey, bool) {
	return parseArray(p, ',', func(p *jsonParser, k *JSONKey) (ok bool) {
		*k, ok = p.key()
		return ok
	})
}

func (v *BatchGetRequest) parseJSON(p *jsonParser) bool {
	var out BatchGetRequest
	ok := p.object(keysName, func(int) (ok bool) {
		out.Keys, ok = p.keys()
		return ok
	})
	return accept(ok && p.end(), v, out)
}

func (v *TxRequest) parseJSON(p *jsonParser) bool {
	var out TxRequest
	ok := p.object(txRequestNames, func(i int) (ok bool) {
		if i == 0 {
			out.Keys, ok = p.keys()
		} else {
			out.Ops, ok = parseArray(p, '{', (*jsonParser).batchPutOp)
		}
		return ok
	})
	return accept(ok && p.end(), v, out)
}

func (v *TxReply) parseJSON(p *jsonParser) bool {
	var out TxReply
	ok := p.object(txReplyNames, func(i int) (ok bool) {
		if i == 0 {
			out.Reads, ok = parseArray(p, '{', (*jsonParser).batchGetResult)
		} else {
			out.Writes, ok = parseArray(p, '{', (*jsonParser).opResult)
		}
		return ok
	})
	return accept(ok && p.end(), v, out)
}

func (v *ErrorReply) parseJSON(p *jsonParser) bool {
	var out ErrorReply
	ok := p.object(errorName, func(int) bool {
		e, ok := p.wireError()
		if e != nil {
			out.Error = *e
		}
		return ok
	})
	return accept(ok && p.end(), v, out)
}

var (
	resultsName, opsName, keysName, errorName = []string{"results"}, []string{"ops"}, []string{"keys"}, []string{"error"}
	txRequestNames, txReplyNames              = []string{"keys", "ops"}, []string{"reads", "writes"}
)

// accept stores a fully parsed document.
func accept[T any](ok bool, dst *T, v T) bool {
	if ok {
		*dst = v
	}
	return ok
}
