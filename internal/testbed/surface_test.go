package testbed

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestClientSurface calls, through the Go client, every route that is
// not an object read, write or listing — an object's versions, verify
// and repair, the policy store, and the operator's status, metrics,
// trace and cluster map — on one shard of a sharded cluster, and checks
// each answer. A refused verify is a denial like any other.
func TestClientSurface(t *testing.T) {
	mc, err := StartMulti(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	node := mc.Nodes[0]
	owner, ownerID, err := node.NewClient("owner")
	if err != nil {
		t.Fatal(err)
	}
	eve, _, err := node.NewClient("eve")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A key shard 0 owns.
	var key string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("surface/%d", i)
		if s, err := mc.Map().OwnerOf(k); err != nil {
			t.Fatal(err)
		} else if s.ID == 0 {
			key = k
		}
	}

	fp := Fingerprint(ownerID)
	src := "read :- sessionKeyIs(k'" + fp + "')\nupdate :- sessionKeyIs(k'" + fp + "')\n"
	pid, err := owner.PutPolicy(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	text, err := owner.GetPolicy(ctx, pid)
	if err != nil || !strings.Contains(text, fp) {
		t.Fatalf("GetPolicy(%s): %q, %v", pid, text, err)
	}

	traceID := obs.NewTraceID()
	values := [][]byte{[]byte("first"), []byte("second value")}
	for i, v := range values {
		putCtx := ctx
		if i == 0 {
			putCtx = obs.WithTraceID(ctx, traceID)
		}
		if ver, err := owner.Put(putCtx, key, v, client.PutOptions{PolicyID: pid}); err != nil || ver != int64(i) {
			t.Fatalf("put %d: version %d, %v", i, ver, err)
		}
	}

	if vers, err := owner.ListVersions(ctx, key); err != nil || !slices.Equal(vers, []int64{0, 1}) {
		t.Errorf("ListVersions: %v, %v; want [0 1]", vers, err)
	}

	info, err := owner.Verify(ctx, key, 1)
	if err != nil {
		t.Fatal(err)
	}
	hash := sha256.Sum256(values[1])
	if want := (client.VerifyInfo{
		Key: core.JSONKey(key), Version: 1, Size: int64(len(values[1])),
		ContentHash: hex.EncodeToString(hash[:]), Policy: pid, PolicyHash: info.PolicyHash,
	}); *info != want || len(info.PolicyHash) != 64 {
		t.Errorf("Verify: %+v, want %+v with a 64-digit policy hash", *info, want)
	}
	// The one denial: eve may not read the object, so she may not verify it.
	var opErr *client.OpError
	if info, err := eve.Verify(ctx, key, 1); !errors.As(err, &opErr) || opErr.Status != http.StatusForbidden || !errors.Is(err, client.ErrDenied) || info != nil {
		t.Errorf("eve's Verify: %+v, %v; want *OpError{Status: 403} matching ErrDenied", info, err)
	}

	if versions, restored, err := owner.Repair(ctx, key); err != nil || versions != 2 || restored != 0 {
		t.Errorf("Repair: %d versions, %d restored, %v; want 2, 0", versions, restored, err)
	}

	var status struct {
		Puts  uint64            `json:"puts"`
		Shard *core.ShardStatus `json:"shard"`
	}
	if err := owner.Status(ctx, &status); err != nil {
		t.Fatal(err)
	}
	if status.Puts < 2 || status.Shard == nil || status.Shard.ID != 0 {
		t.Errorf("Status: %d puts, shard %+v; want at least 2 puts on shard 0", status.Puts, status.Shard)
	}

	metrics, err := owner.Metrics(ctx)
	if err != nil || !strings.Contains(metrics, `pesos_ops_total{op="put"}`) {
		t.Errorf("Metrics: %d bytes without the put counter, %v", len(metrics), err)
	}

	// The controller files a trace once its reply has gone out.
	hexID := obs.FormatTraceID(traceID)
	var d *obs.TraceDump
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if d, err = owner.Trace(ctx, hexID); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil || d.ID != hexID || len(d.Spans) == 0 {
		t.Errorf("Trace(%s): %+v, %v", hexID, d, err)
	}
	if _, err := owner.Trace(ctx, "00000000000000ff"); !errors.As(err, &opErr) || opErr.Status != http.StatusNotFound {
		t.Errorf("Trace of an unknown id: %v, want a 404 *OpError", err)
	}

	doc, err := owner.ClusterMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.VerifyMap(mc.MapKey, doc)
	if err != nil || m.Epoch != mc.Map().Epoch || len(m.Shards) != 2 {
		t.Errorf("ClusterMap: %+v, %v; want the 2-shard map at epoch %d", m, err, mc.Map().Epoch)
	}
}
