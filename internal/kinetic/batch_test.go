package kinetic

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kinetic/wire"
)

// oneGroup is a TBatch of ops as a single group.
func oneGroup(ops ...wire.BatchOp) *wire.Message {
	return &wire.Message{Type: wire.TBatch, Batch: ops, GroupSizes: []uint32{uint32(len(ops))}}
}

// TestDriveBatchAppliesAtomically also pins that a TBatch without
// GroupSizes is one group.
func TestDriveBatchAppliesAtomically(t *testing.T) {
	d := NewDrive(Config{Name: "b0"})
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TBatch, Batch: []wire.BatchOp{
		{Op: wire.BatchPut, Key: []byte("obj/1"), Value: []byte("payload"), NewVersion: []byte("1"), Force: true},
		{Op: wire.BatchPut, Key: []byte("meta"), Value: []byte("m1"), NewVersion: []byte("1")},
	}}))
	if resp.Type != wire.TBatchResp || resp.Status != wire.StatusOK || len(resp.GroupStatus) != 1 || resp.GroupStatus[0].Status != wire.StatusOK {
		t.Fatalf("batch: %v %v %s %+v", resp.Type, resp.Status, resp.StatusMsg, resp.GroupStatus)
	}
	for _, k := range []string{"obj/1", "meta"} {
		g := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte(k)}))
		if g.Status != wire.StatusOK {
			t.Fatalf("get %q after batch: %v", k, g.Status)
		}
	}
	if d.Stats().Batches.Load() != 1 || d.Stats().BatchOps.Load() != 2 {
		t.Fatalf("batch stats: batches=%d ops=%d", d.Stats().Batches.Load(), d.Stats().BatchOps.Load())
	}
	if d.Stats().Puts.Load() != 0 {
		t.Fatalf("batch sub-ops double-counted as puts: %d", d.Stats().Puts.Load())
	}
}

// TestDriveBatchAllOrNothing is the crash-consistency property the
// write path relies on: when the second sub-operation fails its CAS
// check, the first must leave no residue.
func TestDriveBatchAllOrNothing(t *testing.T) {
	d := NewDrive(Config{Name: "b1"})
	// Install meta at version "1" so the batch's CAS (expecting "0")
	// fails on the second sub-op.
	if resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("meta"), Value: []byte("m1"), NewVersion: []byte("1"), Force: true,
	})); resp.Status != wire.StatusOK {
		t.Fatalf("seed meta: %v", resp.Status)
	}

	resp := d.Handle(signedReq(oneGroup(
		wire.BatchOp{Op: wire.BatchPut, Key: []byte("obj/2"), Value: []byte("payload"), NewVersion: []byte("2"), Force: true},
		wire.BatchOp{Op: wire.BatchPut, Key: []byte("meta"), Value: []byte("m2"), DBVersion: []byte("0"), NewVersion: []byte("2")},
	)))
	if resp.Status != wire.StatusOK || len(resp.GroupStatus) != 1 {
		t.Fatalf("batch with stale CAS: %v %+v, want one group status", resp.Status, resp.GroupStatus)
	}
	if gs := resp.GroupStatus[0]; gs.Status != wire.StatusVersionMismatch || gs.FailedIndex != 1 {
		t.Fatalf("group verdict: %v at %d, want VERSION_MISMATCH at 1", gs.Status, gs.FailedIndex)
	}
	// No residue: the first sub-op must not have been applied.
	if g := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("obj/2")})); g.Status != wire.StatusNotFound {
		t.Fatalf("first sub-op residue survived a rejected batch: %v", g.Status)
	}
	// The guarded record is untouched.
	g := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("meta")}))
	if g.Status != wire.StatusOK || !bytes.Equal(g.Value, []byte("m1")) {
		t.Fatalf("guarded record changed: %v %q", g.Status, g.Value)
	}
	if d.Stats().BatchOps.Load() != 0 {
		t.Fatalf("rejected batch counted applied ops: %d", d.Stats().BatchOps.Load())
	}
}

func TestDriveBatchMixedPutDelete(t *testing.T) {
	d := NewDrive(Config{Name: "b2"})
	for _, k := range []string{"old/0", "old/1"} {
		if resp := d.Handle(signedReq(&wire.Message{
			Type: wire.TPut, Key: []byte(k), Value: []byte("x"), NewVersion: []byte("1"), Force: true,
		})); resp.Status != wire.StatusOK {
			t.Fatalf("seed %q: %v", k, resp.Status)
		}
	}
	resp := d.Handle(signedReq(oneGroup(
		wire.BatchOp{Op: wire.BatchDelete, Key: []byte("old/0"), DBVersion: []byte("1")},
		wire.BatchOp{Op: wire.BatchDelete, Key: []byte("old/1"), Force: true},
		wire.BatchOp{Op: wire.BatchPut, Key: []byte("new"), Value: []byte("v"), NewVersion: []byte("1"), Force: true},
	)))
	if resp.Status != wire.StatusOK || len(resp.GroupStatus) != 1 || resp.GroupStatus[0].Status != wire.StatusOK {
		t.Fatalf("mixed batch: %v %s %+v", resp.Status, resp.StatusMsg, resp.GroupStatus)
	}
	if d.Len() != 1 {
		t.Fatalf("store holds %d keys, want 1", d.Len())
	}
}

func TestDriveBatchPermissions(t *testing.T) {
	d := NewDrive(Config{Name: "b3"})
	// Install a write-only account (no delete permission).
	sec := signedReq(&wire.Message{Type: wire.TSecurity, ACLs: []wire.ACL{
		{Identity: DefaultAdminIdentity, Key: DefaultAdminKey, Perms: wire.PermAll},
		{Identity: "writer", Key: []byte("writerwriter"), Perms: wire.PermWrite},
	}})
	if resp := d.Handle(sec); resp.Status != wire.StatusOK {
		t.Fatalf("security: %v", resp.Status)
	}
	req := oneGroup(
		wire.BatchOp{Op: wire.BatchPut, Key: []byte("a"), Value: []byte("v"), Force: true},
		wire.BatchOp{Op: wire.BatchDelete, Key: []byte("b"), Force: true},
	)
	req.User = "writer"
	req.Sign([]byte("writerwriter"))
	resp := d.Handle(req)
	if resp.Status != wire.StatusOK || len(resp.GroupStatus) != 1 {
		t.Fatalf("batch without delete perm: %v %+v, want one group status", resp.Status, resp.GroupStatus)
	}
	if gs := resp.GroupStatus[0]; gs.Status != wire.StatusNotAuthorized || gs.FailedIndex != 1 {
		t.Fatalf("group verdict: %v at %d, want NOT_AUTHORIZED at 1", gs.Status, gs.FailedIndex)
	}
	// Nothing applied, including the permitted first sub-op.
	if d.Len() != 0 {
		t.Fatalf("residue after rejected batch: %d keys", d.Len())
	}
}

func TestDriveBatchSizeLimits(t *testing.T) {
	d := NewDrive(Config{Name: "b4"})
	if resp := d.Handle(signedReq(&wire.Message{Type: wire.TBatch})); resp.Status != wire.StatusInvalidRequest {
		t.Fatalf("empty batch: %v", resp.Status)
	}
	big := make([]wire.BatchOp, wire.MaxBatchOps+1)
	for i := range big {
		big[i] = wire.BatchOp{Op: wire.BatchPut, Key: []byte(fmt.Sprint(i)), Value: []byte("v"), Force: true}
	}
	if resp := d.Handle(signedReq(oneGroup(big...))); resp.Status != wire.StatusInvalidRequest {
		t.Fatalf("oversized batch: %v", resp.Status)
	}
	if d.Len() != 0 {
		t.Fatal("rejected batches left residue")
	}
}
