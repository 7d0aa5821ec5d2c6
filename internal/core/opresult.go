// Unified Op/Result model of the v2 API: every mutation resolves to a
// typed OpResult, errors carry a machine-readable code with a fixed
// HTTP mapping, and asynchronous execution is an option on the same
// call shape instead of a parallel code path.
package core

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"unicode/utf8"

	"repro/internal/cache"
	"repro/internal/store"
)

// JSONKey carries an object key through JSON bodies. Object keys are
// arbitrary byte strings (NUL excluded), but JSON strings must be
// valid UTF-8 — Go's encoder silently substitutes U+FFFD otherwise,
// mangling binary keys. A JSONKey marshals as a plain string when the
// key is valid UTF-8 and as {"b64": "..."} otherwise; both shapes
// unmarshal. There is no ambiguity: a key is never a JSON object.
type JSONKey string

// MarshalJSON implements json.Marshaler.
func (k JSONKey) MarshalJSON() ([]byte, error) {
	if utf8.ValidString(string(k)) {
		return json.Marshal(string(k))
	}
	return json.Marshal(map[string]string{"b64": base64.StdEncoding.EncodeToString([]byte(k))})
}

// UnmarshalJSON implements json.Unmarshaler.
func (k *JSONKey) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '{' {
		var o struct {
			B64 string `json:"b64"`
		}
		if err := json.Unmarshal(data, &o); err != nil {
			return err
		}
		b, err := base64.StdEncoding.DecodeString(o.B64)
		if err != nil {
			return err
		}
		*k = JSONKey(b)
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	*k = JSONKey(s)
	return nil
}

// ErrorCode is the machine-readable error taxonomy of the v2 API.
// Codes are stable wire contract; messages are diagnostics.
type ErrorCode string

// Error codes.
const (
	CodeNone            ErrorCode = ""
	CodeDenied          ErrorCode = "denied"
	CodeNotFound        ErrorCode = "not_found"
	CodeNoSuchPolicy    ErrorCode = "no_such_policy"
	CodeVersionConflict ErrorCode = "version_conflict"
	CodeTooLarge        ErrorCode = "too_large"
	CodeStreamedObject  ErrorCode = "streamed_object"
	CodeCorrupt         ErrorCode = "corrupt"
	CodeBadToken        ErrorCode = "bad_token"
	CodeInvalidArgument ErrorCode = "invalid_argument"
	CodeWrongShard      ErrorCode = "wrong_shard"
	CodeUnauthenticated ErrorCode = "unauthenticated"
	CodeUnavailable     ErrorCode = "unavailable"
	CodeInternal        ErrorCode = "internal"
)

// Additional sentinels introduced by the v2 surface.
var (
	// ErrBadToken rejects malformed or foreign pagination tokens.
	ErrBadToken = errors.New("pesos: invalid pagination token")
	// ErrStreamTooLarge rejects streamed uploads above the cap
	// (DefaultMaxStreamBytes).
	ErrStreamTooLarge = errors.New("pesos: streamed object exceeds size cap")
	// ErrStreamedObject marks a buffered read of a chunked object:
	// the object exists but must be read through the streaming API.
	ErrStreamedObject = errors.New("pesos: object is streamed (chunked)")
	// ErrInvalidArgument rejects malformed requests (empty keys, bad
	// parameters) before they reach the store.
	ErrInvalidArgument = errors.New("pesos: invalid argument")
)

// CodeFor classifies an error under the taxonomy.
func CodeFor(err error) ErrorCode {
	switch {
	case err == nil:
		return CodeNone
	case errors.Is(err, ErrDenied):
		return CodeDenied
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ErrNoSuchPolicy):
		return CodeNoSuchPolicy
	case errors.Is(err, ErrBadVersion):
		return CodeVersionConflict
	case errors.Is(err, store.ErrTooLarge), errors.Is(err, ErrStreamTooLarge):
		return CodeTooLarge
	case errors.Is(err, ErrStreamedObject):
		return CodeStreamedObject
	case errors.Is(err, store.ErrCorrupt):
		return CodeCorrupt
	case errors.Is(err, ErrBadToken):
		return CodeBadToken
	case errors.Is(err, ErrInvalidArgument):
		return CodeInvalidArgument
	case errors.Is(err, ErrWrongShard):
		return CodeWrongShard
	case errors.Is(err, errUnauthenticated):
		return CodeUnauthenticated
	case errors.Is(err, ErrClosed):
		return CodeUnavailable
	default:
		return CodeInternal
	}
}

// HTTPStatus maps a code to its HTTP status.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeNone:
		return http.StatusOK
	case CodeDenied:
		return http.StatusForbidden
	case CodeNotFound, CodeNoSuchPolicy:
		return http.StatusNotFound
	case CodeVersionConflict:
		return http.StatusConflict
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeStreamedObject:
		// The read itself is well-formed; the representation just
		// cannot be produced by the buffered surface.
		return http.StatusUnprocessableEntity
	case CodeBadToken, CodeInvalidArgument:
		return http.StatusBadRequest
	case CodeWrongShard:
		// Retriable redirect: the client refreshes its shard map and
		// re-sends to the owning controller.
		return http.StatusMisdirectedRequest
	case CodeUnauthenticated:
		return http.StatusUnauthorized
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// WireError is the machine-readable error carried in v2 responses and
// per-operation results.
type WireError struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Error implements error.
func (e *WireError) Error() string { return string(e.Code) + ": " + e.Message }

// wireError converts an error for the wire, nil for nil.
func wireError(err error) *WireError {
	if err == nil {
		return nil
	}
	return &WireError{Code: CodeFor(err), Message: err.Error()}
}

// OpResult is the outcome of one mutation. Version is the version
// written (put) or destroyed (delete), int64 for both. For asynchronous
// execution OpID names the deferred operation and Version is not yet
// meaningful; poll with Session.ResultOp.
type OpResult struct {
	Key     JSONKey    `json:"key"`
	Version int64      `json:"version"`
	OpID    uint64     `json:"op,omitempty"`
	Err     *WireError `json:"error,omitempty"`
}

// Failed reports whether the operation failed.
func (r OpResult) Failed() bool { return r.Err != nil }

// PutOp stores or updates one object through the unified v2 call
// shape. Async defers execution and returns an operation id in the
// result instead of a version.
func (s *Session) PutOp(ctx context.Context, key string, value []byte, opts PutOptions) OpResult {
	s.touch()
	if opts.Async {
		return s.enqueue(key, func(ctx context.Context) (int64, error) {
			return s.ctl.putObject(ctx, s.clientKey, key, value, opts)
		})
	}
	ver, err := s.ctl.putObject(ctx, s.clientKey, key, value, opts)
	return OpResult{Key: JSONKey(key), Version: ver, Err: wireError(err)}
}

// DeleteOp removes one object (and its whole version history) through
// the unified v2 call shape, reporting the destroyed head version.
func (s *Session) DeleteOp(ctx context.Context, key string, opts DeleteOptions) OpResult {
	s.touch()
	if opts.Async {
		return s.enqueue(key, func(ctx context.Context) (int64, error) {
			return s.ctl.deleteObject(ctx, s.clientKey, key, opts)
		})
	}
	ver, err := s.ctl.deleteObject(ctx, s.clientKey, key, opts)
	return OpResult{Key: JSONKey(key), Version: ver, Err: wireError(err)}
}

// enqueue defers op to the async worker pool and immediately returns
// the operation id the client polls with ResultOp (§4.1). The context
// op runs under is detached: the operation outlives the initiating
// request.
func (s *Session) enqueue(key string, op func(context.Context) (int64, error)) OpResult {
	a := s.ctl.ensureAsync()
	opID := a.nextOp.Add(1)
	res := cache.Result{OpID: opID, Owner: s.clientKey, Key: key}
	a.results.Put(res)
	a.queue <- func() {
		ver, err := op(context.Background())
		res.Done, res.Version = true, ver
		if err != nil {
			// The error chain does not survive the result buffer (it
			// holds strings), so the taxonomy code is classified here.
			res.Err, res.Code = err.Error(), string(CodeFor(err))
		}
		a.results.Put(res)
	}
	return OpResult{Key: JSONKey(key), OpID: opID}
}

// ResultOp reports an asynchronous operation's outcome as an OpResult
// plus a completion flag. ok=false means the id is unknown, aged out
// of the 2048-entry result window, or owned by a different client — in
// all cases the client must assume the request may not have executed
// and re-issue it (§4.1).
func (s *Session) ResultOp(opID uint64) (res OpResult, done, ok bool) {
	s.touch()
	r, ok := s.ctl.ensureAsync().results.Get(opID)
	if !ok || r.Owner != s.clientKey {
		return OpResult{}, false, false
	}
	res = OpResult{Key: JSONKey(r.Key), OpID: r.OpID, Version: r.Version}
	if r.Done && r.Err != "" {
		res.Err = &WireError{Code: ErrorCode(r.Code), Message: r.Err}
	}
	return res, r.Done, true
}
