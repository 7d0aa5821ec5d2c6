// Package client is a Go client for the Pesos REST interface (§4.1).
// Pesos deliberately needs no special client library — any HTTPS
// client works — but examples, tools and benchmarks share this thin
// wrapper. It authenticates with a TLS client certificate and, before
// trusting a controller, can verify the controller's attestation
// transcript out of band.
package client

import (
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/obs"
)

// Client talks to one Pesos controller.
type Client struct {
	base    *url.URL // Config.BaseURL, parsed once
	baseErr error    // why it could not be
	http    *http.Client
}

// ErrDenied is what a policy denial matches: errors.Is(err, ErrDenied)
// holds for an *OpError with the denied code or the 403 status.
var ErrDenied = errors.New("pesos client: denied by policy")

// Config configures a client.
type Config struct {
	// BaseURL is the controller endpoint, e.g. "https://pesos:8443".
	BaseURL string
	// TLS is the mutual-TLS configuration (client cert + root CA).
	TLS *tls.Config
	// DialContext overrides the transport dialer (in-memory networks).
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)
}

// New creates a client.
func New(cfg Config) *Client {
	tr := &http.Transport{
		TLSClientConfig:     cfg.TLS,
		MaxIdleConnsPerHost: 128,
	}
	if cfg.DialContext != nil {
		tr.DialContext = cfg.DialContext
	}
	base, err := url.Parse(cfg.BaseURL)
	return &Client{base: base, baseErr: err, http: &http.Client{Transport: tr}}
}

// PutOptions are core.PutOptions, carried over the wire.
type PutOptions = core.PutOptions

// Put stores an object and returns its new version: PutOp with the
// per-op failure folded into the error, as an *OpError. It is
// synchronous; asynchronous execution is PutOp + ResultOp.
func (c *Client) Put(ctx context.Context, key string, value []byte, opts PutOptions) (int64, error) {
	if opts.Async {
		return 0, errors.New("pesos client: Put cannot be async; use PutOp and ResultOp")
	}
	res, err := c.PutOp(ctx, key, value, opts)
	return res.Version, res.failure(err)
}

// GetOptions are core.GetOptions, carried over the wire.
type GetOptions = core.GetOptions

// ObjectMeta is the metadata returned with a get.
type ObjectMeta struct {
	Version  int64
	PolicyID string
}

// Get fetches an object whole, into a slice of its declared size.
func (c *Client) Get(ctx context.Context, key string, opts GetOptions) ([]byte, *ObjectMeta, error) {
	body, size, meta, err := c.open(ctx, key, opts)
	if err != nil {
		return nil, nil, err
	}
	defer body.Close()
	var value []byte
	if size < 0 || size > maxBufferedReply {
		value, err = io.ReadAll(body)
	} else {
		value = make([]byte, size)
		_, err = io.ReadFull(body, value)
	}
	if err != nil {
		return nil, nil, err
	}
	return value, meta, nil
}

// Delete removes an object and its history: synchronous DeleteOp with
// the per-op failure folded into the error, as an *OpError.
func (c *Client) Delete(ctx context.Context, key string, certs ...*authority.Certificate) error {
	res, err := c.DeleteOp(ctx, key, false, certs...)
	return res.failure(err)
}

// ListVersions returns an object's stored versions.
func (c *Client) ListVersions(ctx context.Context, key string, certs ...*authority.Certificate) ([]int64, error) {
	var out struct {
		Versions []int64 `json:"versions"`
	}
	err := c.call(ctx, http.MethodGet, "/v1/versions/", key, nil, nil, certs, &out)
	return out.Versions, err
}

// PutPolicy uploads policy source, returning the policy id.
func (c *Client) PutPolicy(ctx context.Context, src string) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	err := c.call(ctx, http.MethodPost, "/v1/policies", "", nil, strings.NewReader(src), nil, &out)
	return out.ID, err
}

// GetPolicy fetches the canonical source of a stored policy.
func (c *Client) GetPolicy(ctx context.Context, id string) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/policies/", id, nil, nil, nil)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// VerifyInfo is the integrity evidence for one stored version.
type VerifyInfo struct {
	Key         core.JSONKey `json:"key"`
	Version     int64        `json:"version"`
	Size        int64        `json:"size"`
	ContentHash string       `json:"contentHash"`
	Policy      string       `json:"policy"`
	PolicyHash  string       `json:"policyHash"`
}

// Verify fetches integrity-checked metadata for a stored version.
func (c *Client) Verify(ctx context.Context, key string, version int64) (*VerifyInfo, error) {
	q := url.Values{"version": {strconv.FormatInt(version, 10)}}
	var out VerifyInfo
	if err := c.call(ctx, http.MethodGet, "/v1/verify/", key, q, nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Repair restores an object's missing or corrupt replicas (§4.5),
// reporting how many versions were examined and how many records were
// rewritten. A report that names another key is an error.
func (c *Client) Repair(ctx context.Context, key string) (versions, restored int, err error) {
	var out struct {
		Key      core.JSONKey `json:"key"`
		Versions int          `json:"versions"`
		Restored int          `json:"restored"`
	}
	err = c.call(ctx, http.MethodPost, "/v1/repair/", key, nil, nil, nil, &out)
	if err == nil && string(out.Key) != key {
		err = fmt.Errorf("pesos client: repair of %q reported on %q", key, out.Key)
	}
	return out.Versions, out.Restored, err
}

// send issues one request and returns the reply as it came, whatever
// its status, body unread: the client's one way onto the wire. The URL is
// the parsed base plus route plus, where the route is addressed by one,
// the key: itself in Path, escaped in RawPath, nothing parsed.
func (c *Client) send(ctx context.Context, method, route, key string, q url.Values, body io.Reader, certs []*authority.Certificate) (*http.Response, error) {
	if c.baseErr != nil {
		return nil, c.baseErr
	}
	req, err := http.NewRequestWithContext(ctx, method, "", body)
	if err != nil {
		return nil, err
	}
	u := req.URL
	*u = *c.base
	u.Path += route + key
	if esc := escapeKey(key); esc != key {
		u.RawPath = c.base.EscapedPath() + route + esc
	}
	u.RawQuery, req.Host = q.Encode(), u.Host
	for _, cert := range certs {
		raw, err := cert.Marshal()
		if err != nil {
			return nil, err
		}
		req.Header.Add(core.CertHeader, base64.StdEncoding.EncodeToString(raw))
	}
	// Forward trace context so the controller's trace adopts the
	// caller's id, and the router's attempt info if this dispatch goes
	// through the cluster router.
	if id := obs.TraceID(ctx); id != 0 {
		req.Header.Set(obs.TraceHeader, obs.FormatTraceID(id))
	}
	if ri, ok := obs.RouteInfoFromContext(ctx); ok {
		req.Header.Set(obs.RouteHeader, ri.String())
	}
	return c.http.Do(req)
}

// call serves every route that answers 200 with a JSON document, which
// out receives (nil discards it); any other status is the error it
// decodes to.
func (c *Client) call(ctx context.Context, method, route, key string, q url.Values, body io.Reader, certs []*authority.Certificate, out any) error {
	resp, err := c.send(ctx, method, route, key, q, body, certs)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return ReadJSON(resp, out)
}

// maxBufferedReply bounds what is allocated on a declared length alone;
// maxDrain what ReadJSON reads past a streamed value to reach the end of
// a reply: beyond it, a new connection costs less than the bytes.
const maxBufferedReply, maxDrain = 1 << 20, 256 << 10

// ReadJSON consumes a JSON reply into out (nil skips decoding) and closes
// it. One of the codec's shapes (core.RESTShape) arriving with its length
// is read once, whole. Anything else — a cold route's reply, a shape from
// a server that chunks it — is decoded as a stream and then read on to
// EOF, which is what keeps the connection: a json.Decoder stops short of
// a chunked reply's terminating chunk, and net/http discards a connection
// whose body was closed unfinished. A reply with more than maxDrain left
// over is closed where it stands.
func ReadJSON(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if shape, ok := out.(core.RESTShape); ok && resp.ContentLength >= 0 && resp.ContentLength <= maxBufferedReply {
		return core.ReadREST(resp.Body, resp.ContentLength, shape)
	}
	var err error
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	// A drain that fails or falls short costs the connection, nothing
	// else: Close then discards it.
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrain))
	return err
}

// decodeError consumes a non-200 reply into the *OpError it stands for,
// a denial included. Every route fails in the one envelope
// {"error":{"code","message"}}.
func decodeError(resp *http.Response) error {
	var e core.ErrorReply
	ReadJSON(resp, &e) // an undecodable body leaves the status to speak
	opErr := &OpError{Status: resp.StatusCode, Code: string(e.Error.Code), Message: e.Error.Message}
	if opErr.Message == "" {
		opErr.Message = resp.Status
	}
	return opErr
}

// escapeKey renders an object key as one URL path segment that
// round-trips through the server's mux for every key the API accepts:
// slashes, percent signs, non-UTF-8 bytes, and dot segments ("..",
// "a/../b") included. url.PathEscape is not enough — it leaves '.'
// bare, and a key like ".." would be path-cleaned away before routing
// — so everything outside the unreserved set is percent-encoded. A key
// that is all unreserved is its own escape and costs no allocation.
func escapeKey(key string) string {
	const upperhex = "0123456789ABCDEF"
	unreserved := func(c byte) bool {
		return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '~'
	}
	i := 0
	for i < len(key) && unreserved(key[i]) {
		i++
	}
	if i == len(key) {
		return key
	}
	var b strings.Builder
	b.Grow(len(key))
	b.WriteString(key[:i])
	for ; i < len(key); i++ {
		c := key[i]
		if unreserved(c) {
			b.WriteByte(c)
			continue
		}
		b.WriteByte('%')
		b.WriteByte(upperhex[c>>4])
		b.WriteByte(upperhex[c&15])
	}
	return b.String()
}
