package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/enclave/attest"
)

// LeaseRequest is the wire form of the attestd lease endpoints
// (cmd/attestd mirrors it so daemon and client cannot drift).
type LeaseRequest struct {
	Shard    int    `json:"shard"`
	Holder   string `json:"holder,omitempty"`   // acquire, renew
	Name     string `json:"name,omitempty"`     // standby heartbeat
	Endpoint string `json:"endpoint,omitempty"` // acquire, standby
	Gen      uint64 `json:"gen,omitempty"`      // renew
	TTLMs    int64  `json:"ttlMs,omitempty"`
}

// Lease-conflict codes carried in attestd 409 responses, so HTTP
// clients can map them back to the sentinel errors HANode switches on.
const (
	LeaseCodeHeld = "lease_held"
	LeaseCodeLost = "lease_lost"
)

// HTTPLeases is the LeaseClient over attestd's /v1/lease endpoints,
// for daemons that don't share a process with the lease authority.
type HTTPLeases struct {
	// Base is the attestd base URL, e.g. "http://127.0.0.1:9443".
	Base string
	// Client overrides http.DefaultClient when set.
	Client *http.Client
}

func (h *HTTPLeases) httpClient() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

// post sends one lease call and decodes the response into out (when
// non-nil), mapping conflict codes onto the attest sentinel errors.
func (h *HTTPLeases) post(ctx context.Context, path string, req *LeaseRequest, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, h.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := h.httpClient().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		_ = json.Unmarshal(data, &e)
		switch e.Code {
		case LeaseCodeHeld:
			return fmt.Errorf("%w: %s", attest.ErrLeaseHeld, e.Error)
		case LeaseCodeLost:
			return fmt.Errorf("%w: %s", attest.ErrLeaseLost, e.Error)
		}
		if e.Error == "" {
			e.Error = resp.Status
		}
		return fmt.Errorf("cluster: lease %s: %s", path, e.Error)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Acquire implements LeaseClient.
func (h *HTTPLeases) Acquire(ctx context.Context, shard int, holder, endpoint string, ttl time.Duration) (*attest.Lease, error) {
	var l attest.Lease
	err := h.post(ctx, "/v1/lease/acquire", &LeaseRequest{
		Shard: shard, Holder: holder, Endpoint: endpoint, TTLMs: ttl.Milliseconds(),
	}, &l)
	if err != nil {
		return nil, err
	}
	return &l, nil
}

// Renew implements LeaseClient.
func (h *HTTPLeases) Renew(ctx context.Context, shard int, holder string, gen uint64, ttl time.Duration) (*attest.Lease, error) {
	var l attest.Lease
	err := h.post(ctx, "/v1/lease/renew", &LeaseRequest{
		Shard: shard, Holder: holder, Gen: gen, TTLMs: ttl.Milliseconds(),
	}, &l)
	if err != nil {
		return nil, err
	}
	return &l, nil
}

// Standby implements LeaseClient.
func (h *HTTPLeases) Standby(ctx context.Context, shard int, name, endpoint string, ttl time.Duration) error {
	return h.post(ctx, "/v1/lease/standby", &LeaseRequest{
		Shard: shard, Name: name, Endpoint: endpoint, TTLMs: ttl.Milliseconds(),
	}, nil)
}

// Revoke forces the shard's lease open (operator failover drill;
// attestd restricts it to loopback).
func (h *HTTPLeases) Revoke(ctx context.Context, shard int) error {
	return h.post(ctx, "/v1/lease/revoke", &LeaseRequest{Shard: shard}, nil)
}

// Leases lists every shard's lease state.
func (h *HTTPLeases) Leases(ctx context.Context) ([]attest.Lease, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, h.Base+"/v1/leases", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.httpClient().Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		client.ReadJSON(resp, nil)
		return nil, fmt.Errorf("cluster: list leases: %s", resp.Status)
	}
	var out struct {
		Leases []attest.Lease `json:"leases"`
	}
	if err := client.ReadJSON(resp, &out); err != nil {
		return nil, err
	}
	return out.Leases, nil
}
