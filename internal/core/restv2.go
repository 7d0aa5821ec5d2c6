// The /v2 routes: the one way an object is put, read, deleted, listed
// or polled over the wire, and a transaction run — scan-native,
// batch-native, streaming, with the unified Op/Result model. Every
// mutation answers with an OpResult; every failure is the envelope of
// writeError (rest.go).
package core

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
)

// registerV2 mounts the v2 routes on the REST server's mux.
func (s *RESTServer) registerV2() {
	s.route("GET /v2/objects", "scan", s.handleList)
	s.object("GET /v2/objects/{key...}", "get", s.handleGetV2)
	s.object("PUT /v2/objects/{key...}", "put", s.handlePutV2)
	s.object("POST /v2/objects/{key...}", "put", s.handlePutV2)
	s.object("DELETE /v2/objects/{key...}", "delete", s.handleDeleteV2)
	s.route("POST /v2/batch/get", "batch", s.handleBatchGet)
	s.route("POST /v2/batch/put", "batch", s.handleBatchPut)
	s.route("POST /v2/tx", "tx", s.handleTx)
	s.route("GET /v2/results/{op}", "other", s.handleResultV2)
}

// handleList serves one page of a prefix/range listing.
//
//	GET /v2/objects?prefix=P&start=S&limit=N&token=T
func (s *RESTServer) handleList(w http.ResponseWriter, r *http.Request, sess *Session) error {
	certs, err := certsFrom(r)
	if err != nil {
		return err
	}
	q := r.URL.Query()
	opts := ScanOptions{
		Prefix: q.Get("prefix"),
		Start:  q.Get("start"),
		Token:  q.Get("token"),
		Certs:  certs,
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			return fmt.Errorf("%w: bad limit %q", ErrInvalidArgument, l)
		}
		opts.Limit = n
	}
	page, err := sess.Scan(r.Context(), opts)
	if err != nil {
		return err
	}
	return reply(w, page)
}

// handleGetV2 streams an object. Headers carry the metadata; the body
// is the raw payload, chunked objects streamed chunk by chunk. An
// integrity failure mid-stream aborts the connection (the client sees
// a truncated transfer, never silently wrong bytes).
func (s *RESTServer) handleGetV2(w http.ResponseWriter, r *http.Request, sess *Session, o objectReq) error {
	opts := GetOptions{Certs: o.certs, Version: o.version, HasVersion: o.hasVersion}
	meta, send, err := sess.GetStream(r.Context(), o.key, opts)
	if err != nil {
		return err
	}
	w.Header().Set("X-Pesos-Version", strconv.FormatInt(meta.Version, 10))
	w.Header().Set("X-Pesos-Policy", meta.PolicyID)
	w.Header().Set("X-Pesos-Content-Hash", hex.EncodeToString(meta.ContentHash[:]))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(meta.Size, 10))
	w.WriteHeader(http.StatusOK)
	if err := send(w); err != nil {
		// Headers are gone; panicking with the sentinel aborts the
		// connection so the truncation is observable client-side.
		panic(http.ErrAbortHandler)
	}
	return nil
}

// handlePutV2 stores an object from the (streamed) request body.
// Values above the inline limit become chunked records transparently;
// ?async=1 defers execution (inline-sized values only) and returns an
// operation id inside the OpResult.
func (s *RESTServer) handlePutV2(w http.ResponseWriter, r *http.Request, sess *Session, o objectReq) error {
	opts := PutOptions{
		PolicyID: o.query.Get("policy"), Certs: o.certs, Async: o.query.Get("async") != "",
		Version: o.version, HasVersion: o.hasVersion,
	}
	if !opts.Async {
		return replyOp(w, sess.PutStream(r.Context(), o.key, r.Body, opts))
	}
	// Deferred execution outlives the request, so the body must be
	// buffered; the inline value limit applies.
	body, err := readLimit(r.Body)
	if err != nil {
		return err
	}
	return replyOp(w, sess.PutOp(r.Context(), o.key, body, opts))
}

// handleDeleteV2 removes an object, reporting the destroyed version.
func (s *RESTServer) handleDeleteV2(w http.ResponseWriter, r *http.Request, sess *Session, o objectReq) error {
	opts := DeleteOptions{Certs: o.certs, Async: o.query.Get("async") != ""}
	return replyOp(w, sess.DeleteOp(r.Context(), o.key, opts))
}

// handleBatchGet serves POST /v2/batch/get {"keys":[...]}.
func (s *RESTServer) handleBatchGet(w http.ResponseWriter, r *http.Request, sess *Session) error {
	certs, err := certsFrom(r)
	if err != nil {
		return err
	}
	var req BatchGetRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	results, err := sess.BatchGet(r.Context(), keyStrings(req.Keys), certs)
	if err != nil {
		return err
	}
	return reply(w, &BatchGetReply{Results: results})
}

func keyStrings(keys []JSONKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = string(k)
	}
	return out
}

// handleBatchPut serves POST /v2/batch/put {"ops":[...]}.
func (s *RESTServer) handleBatchPut(w http.ResponseWriter, r *http.Request, sess *Session) error {
	certs, err := certsFrom(r)
	if err != nil {
		return err
	}
	var req BatchPutRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	results, err := sess.BatchPut(r.Context(), req.Ops, certs)
	if err != nil {
		return err
	}
	return reply(w, &BatchPutReply{Results: results})
}

// handleTx serves POST /v2/tx {"keys":[...],"ops":[...]}: one
// transaction, whole. It commits and answers {"reads":[...],"writes":[...]}
// or aborts and answers the error envelope.
func (s *RESTServer) handleTx(w http.ResponseWriter, r *http.Request, sess *Session) error {
	certs, err := certsFrom(r)
	if err != nil {
		return err
	}
	var req TxRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	reads, writes, err := sess.Tx(r.Context(), keyStrings(req.Keys), req.Ops, certs)
	if err != nil {
		return err
	}
	return reply(w, &TxReply{Reads: reads, Writes: writes})
}

// handleResultV2 polls an asynchronous operation through the unified
// result shape: {"done":bool,"result":OpResult}.
func (s *RESTServer) handleResultV2(w http.ResponseWriter, r *http.Request, sess *Session) error {
	opID, err := strconv.ParseUint(r.PathValue("op"), 10, 64)
	if err != nil {
		return fmt.Errorf("%w: bad op id: %v", ErrInvalidArgument, err)
	}
	res, done, ok := sess.ResultOp(opID)
	if !ok {
		return fmt.Errorf("%w: result unknown or aged out; re-issue the request", ErrNotFound)
	}
	return reply(w, map[string]any{"done": done, "result": res})
}

// replyOp renders a mutation outcome: the HTTP status follows the
// embedded error's taxonomy code (200 on success), the body is always
// the full OpResult.
func replyOp(w http.ResponseWriter, res OpResult) error {
	status := http.StatusOK
	if res.Err != nil {
		status = res.Err.Code.HTTPStatus()
	}
	writeShape(w, status, &res)
	return nil
}

// decodeBody reads a bounded JSON request body, once, and parses it. A
// body that declares itself over the bound is refused unread.
func decodeBody(r *http.Request, v RESTShape) error {
	if r.ContentLength > maxBatchBody {
		return fmt.Errorf("%w: request body of %d bytes exceeds %d", ErrInvalidArgument, r.ContentLength, maxBatchBody)
	}
	if err := ReadREST(http.MaxBytesReader(nil, r.Body, maxBatchBody), r.ContentLength, v); err != nil {
		return fmt.Errorf("%w: bad request body: %v", ErrInvalidArgument, err)
	}
	return nil
}

// maxBatchBody bounds a batch or transaction request: the op cap worth
// of inline values at base64's 4/3 inflation, plus JSON overhead — a
// maximal legal batch (256 ops × 1 MB) must fit.
const maxBatchBody = (MaxBatchRequestOps*4/3 + 64) << 20
