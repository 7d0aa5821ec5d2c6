package kinetic

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/kinetic/wire"
)

// TestDriveGroupedBatchPartialCommit is the group-commit contract: a
// grouped batch applies every group independently — a group rejected
// by its compare-and-swap is skipped without aborting its neighbours,
// and the response carries one verdict per group.
func TestDriveGroupedBatchPartialCommit(t *testing.T) {
	d := NewDrive(Config{Name: "g0"})
	// Seed "meta" at version 1 so the middle group's stale CAS fails.
	if resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("meta"), Value: []byte("m1"), NewVersion: []byte("1"), Force: true,
	})); resp.Status != wire.StatusOK {
		t.Fatalf("seed meta: %v", resp.Status)
	}

	resp := d.Handle(signedReq(&wire.Message{Type: wire.TBatch,
		Batch: []wire.BatchOp{
			// Group 0: clean create (client A's object+meta pair).
			{Op: wire.BatchPut, Key: []byte("obj/a"), Value: []byte("va"), NewVersion: []byte("1"), Force: true},
			{Op: wire.BatchPut, Key: []byte("meta/a"), Value: []byte("ma"), NewVersion: []byte("1")},
			// Group 1: stale CAS on the second sub-op (client B lost a
			// race) — must be skipped whole, no obj/b residue.
			{Op: wire.BatchPut, Key: []byte("obj/b"), Value: []byte("vb"), NewVersion: []byte("2"), Force: true},
			{Op: wire.BatchPut, Key: []byte("meta"), Value: []byte("m2"), DBVersion: []byte("0"), NewVersion: []byte("2")},
			// Group 2: clean update of the seeded key (client C holds
			// the correct version) — must commit even after group 1
			// failed.
			{Op: wire.BatchPut, Key: []byte("meta"), Value: []byte("m2c"), DBVersion: []byte("1"), NewVersion: []byte("2")},
		},
		GroupSizes: []uint32{2, 2, 1},
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("grouped batch message status: %v %s", resp.Status, resp.StatusMsg)
	}
	if len(resp.GroupStatus) != 3 {
		t.Fatalf("got %d group statuses, want 3", len(resp.GroupStatus))
	}
	if gs := resp.GroupStatus[0]; gs.Status != wire.StatusOK {
		t.Errorf("group 0: %v %s, want OK", gs.Status, gs.StatusMsg)
	}
	if gs := resp.GroupStatus[1]; gs.Status != wire.StatusVersionMismatch || gs.FailedIndex != 1 {
		t.Errorf("group 1: %v idx=%d, want VERSION_MISMATCH idx=1", gs.Status, gs.FailedIndex)
	}
	if gs := resp.GroupStatus[2]; gs.Status != wire.StatusOK {
		t.Errorf("group 2: %v %s, want OK", gs.Status, gs.StatusMsg)
	}

	// Effects: groups 0 and 2 landed, group 1 left no residue.
	for k, want := range map[string]string{"obj/a": "va", "meta/a": "ma", "meta": "m2c"} {
		g := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte(k)}))
		if g.Status != wire.StatusOK || !bytes.Equal(g.Value, []byte(want)) {
			t.Errorf("get %q: %v %q, want %q", k, g.Status, g.Value, want)
		}
	}
	if g := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("obj/b")})); g.Status != wire.StatusNotFound {
		t.Errorf("rejected group's object record leaked: %v", g.Status)
	}
	st := d.Stats()
	if st.BatchGroups.Load() != 3 || st.GroupRejects.Load() != 1 {
		t.Errorf("group stats: groups=%d rejects=%d, want 3/1", st.BatchGroups.Load(), st.GroupRejects.Load())
	}
	if st.BatchOps.Load() != 3 {
		t.Errorf("applied sub-ops: %d, want 3 (groups 0 and 2 only)", st.BatchOps.Load())
	}
}

// TestDriveGroupedBatchSequentialSemantics: later groups validate
// against the store state earlier groups left, so a grouped batch is
// equivalent to issuing its groups back to back.
func TestDriveGroupedBatchSequentialSemantics(t *testing.T) {
	d := NewDrive(Config{Name: "g1"})
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TBatch,
		Batch: []wire.BatchOp{
			{Op: wire.BatchPut, Key: []byte("k"), Value: []byte("v1"), NewVersion: []byte("1")},
			{Op: wire.BatchPut, Key: []byte("k"), Value: []byte("v2"), DBVersion: []byte("1"), NewVersion: []byte("2")},
		},
		GroupSizes: []uint32{1, 1},
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("batch: %v", resp.Status)
	}
	for i, gs := range resp.GroupStatus {
		if gs.Status != wire.StatusOK {
			t.Fatalf("group %d: %v %s", i, gs.Status, gs.StatusMsg)
		}
	}
	g := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if !bytes.Equal(g.Value, []byte("v2")) || !bytes.Equal(g.DBVersion, []byte("2")) {
		t.Fatalf("final state %q@%q, want v2@2", g.Value, g.DBVersion)
	}
}

// TestDriveGroupedBatchValidation: malformed group shapes are rejected
// whole before touching the store.
func TestDriveGroupedBatchValidation(t *testing.T) {
	d := NewDrive(Config{Name: "g2"})
	ops := []wire.BatchOp{{Op: wire.BatchPut, Key: []byte("k"), Value: []byte("v"), Force: true}}
	for _, sizes := range [][]uint32{{2}, {1, 1}, {0, 1}} {
		resp := d.Handle(signedReq(&wire.Message{Type: wire.TBatch, Batch: ops, GroupSizes: sizes}))
		if resp.Status != wire.StatusInvalidRequest {
			t.Errorf("sizes %v: %v, want INVALID_REQUEST", sizes, resp.Status)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("rejected batches left %d keys", d.Len())
	}
}

// TestGroupedBatchSingleMediaWait: the whole point of merging — N
// groups pay one positioning delay, not N. Measured against the HDD
// model with second-scale positioning so scheduling noise cannot blur
// the comparison.
func TestGroupedBatchSingleMediaWait(t *testing.T) {
	pos := 30 * time.Millisecond
	media := &HDDMedia{Positioning: pos, BytesPerSec: 1e12, TimeScale: 1}
	d := NewDrive(Config{Name: "g3", Media: media})

	var ops []wire.BatchOp
	var sizes []uint32
	for i := 0; i < 16; i++ {
		ops = append(ops, wire.BatchOp{
			Op: wire.BatchPut, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v"), Force: true,
		})
		sizes = append(sizes, 1)
	}
	t0 := time.Now()
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TBatch, Batch: ops, GroupSizes: sizes}))
	elapsed := time.Since(t0)
	if resp.Status != wire.StatusOK {
		t.Fatalf("batch: %v", resp.Status)
	}
	if elapsed > 3*pos {
		t.Fatalf("16 grouped writes took %v; one amortized media wait should stay near %v", elapsed, pos)
	}
}

// TestDriveOneDurability: the drive has one durability, write-through.
// A FLUSH request (Kinetic message type 16) is an unsupported
// operation, and a put carrying the retired sync-mode field set to
// write-back decodes, verifies and pays the write-through commit
// penalty like any other put.
func TestDriveOneDurability(t *testing.T) {
	media := &HDDMedia{Positioning: time.Millisecond, BytesPerSec: 1e12, WritePenalty: 40 * time.Millisecond, TimeScale: 1}
	d := NewDrive(Config{Name: "g4", Media: media})

	if resp := d.Handle(signedReq(&wire.Message{Type: 16})); resp.Status != wire.StatusInvalidRequest {
		t.Fatalf("FLUSH request: %v, want %v", resp.Status, wire.StatusInvalidRequest)
	}

	var req wire.Message
	if err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(retiredSyncPut("wb", "written through"))), &req); err != nil {
		t.Fatalf("decode: %v", err)
	}
	t0 := time.Now()
	resp := d.Handle(&req)
	if elapsed := time.Since(t0); resp.Status != wire.StatusOK || elapsed < media.WritePenalty {
		t.Fatalf("put with the retired sync field: %v %s after %v; want OK after the %v write penalty",
			resp.Status, resp.StatusMsg, elapsed, media.WritePenalty)
	}
	if g := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("wb")})); g.Status != wire.StatusOK || string(g.Value) != "written through" {
		t.Fatalf("get wb: %v %q", g.Status, g.Value)
	}
}

// retiredSyncPut is a put of key and value signed by the factory
// account in the frame format of a drive link that carried a sync mode:
// field 11 set to 1 (write-back) behind the put's other fields, covered
// by the MAC as every field but the value's bytes is. value must occur
// in the frame nowhere but as the value.
func retiredSyncPut(key, value string) []byte {
	m := &wire.Message{Type: wire.TPut, Seq: 1, User: DefaultAdminIdentity,
		Key: []byte(key), Value: []byte(value), NewVersion: []byte("1"), Force: true}
	body := append(m.Marshal(), 11, 1, 1) // field 11, length 1, write-back
	v := bytes.Index(body, m.Value)
	mac := hmac.New(sha256.New, DefaultAdminKey)
	mac.Write(body[:v])
	mac.Write(body[v+len(value):])
	body = mac.Sum(append(body, 22, sha256.Size)) // the HMAC field, tag 22, ends the frame
	frame := binary.BigEndian.AppendUint32([]byte{wire.Magic}, uint32(len(body)))
	return append(frame, body...)
}
