package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

func TestRepairRestoresLostReplica(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 3 })
	s := h.ctl.Session("w")
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := s.Put(ctx, "k", []byte(fmt.Sprintf("v%d", i)), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a replaced drive: erase one replica's contents.
	victim := store.Placement("k", 3, 3)[1]
	erase := &wire.Message{Type: wire.TErase, User: AdminIdentity}
	erase.Sign(h.ctl.adminKeyFor(h.drives[victim].Name()))
	if resp := h.drives[victim].Handle(erase); resp.Status != wire.StatusOK {
		t.Fatalf("erase victim: %v", resp.Status)
	}
	if h.drives[victim].Len() != 0 {
		t.Fatal("victim not erased")
	}

	report, err := s.Repair(ctx, "k")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if report.Versions != 3 {
		t.Errorf("examined %d versions, want 3", report.Versions)
	}
	// 3 version records + 1 meta restored on the victim.
	if report.Restored != 4 {
		t.Errorf("restored %d records, want 4", report.Restored)
	}
	// The victim holds a full copy again.
	if h.drives[victim].Len() != 4 {
		t.Errorf("victim holds %d keys after repair, want 4", h.drives[victim].Len())
	}
	// Repair is idempotent.
	report, err = s.Repair(ctx, "k")
	if err != nil || report.Restored != 0 {
		t.Errorf("second repair: restored=%d err=%v", report.Restored, err)
	}
	// Every version still reads back intact.
	for i := int64(0); i < 3; i++ {
		val, _, err := s.Get(ctx, "k", GetOptions{Version: i, HasVersion: true})
		if err != nil || !bytes.Equal(val, []byte(fmt.Sprintf("v%d", i))) {
			t.Errorf("get v%d after repair: %q %v", i, val, err)
		}
	}
}

// TestRepairReadsEachMetadataReplicaOnce: the election that picks the
// metadata repair converges to also tells which replicas lack it, so
// repairing a healthy key asks each replica for its metadata once. Every
// other drive GET of the repair is one probe of one version record on
// one replica.
func TestRepairReadsEachMetadataReplicaOnce(t *testing.T) {
	const replicas, versions = 3, 2
	h := newHarness(t, replicas, func(c *Config) { c.Replicas = replicas })
	s := h.ctl.Session("w")
	ctx := context.Background()
	for i := 0; i < versions; i++ {
		if _, err := s.Put(ctx, "k", []byte(fmt.Sprintf("v%d", i)), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	before := driveGets(h.drives)
	report, err := s.Repair(ctx, "k")
	if err != nil || report.Versions != versions || report.Restored != 0 {
		t.Fatalf("repair of a healthy key: %+v, %v", report, err)
	}
	if metaGets := driveGets(h.drives) - before - replicas*versions; metaGets != replicas {
		t.Errorf("%d drive GETs of the metadata record, want %d: one per replica", metaGets, replicas)
	}
}

func TestRepairGovernedByPolicy(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.Replicas = 2 })
	owner := h.ctl.Session("0123")
	other := h.ctl.Session("4567")
	ctx := context.Background()
	pid, err := h.ctl.PutPolicy(ctx, "read :- sessionKeyIs(U)\nupdate :- sessionKeyIs(k'0123')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Put(ctx, "k", []byte("v"), PutOptions{PolicyID: pid}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Repair(ctx, "k"); err == nil {
		t.Fatal("repair allowed without update permission")
	}
	if _, err := owner.Repair(ctx, "k"); err != nil {
		t.Fatalf("owner repair: %v", err)
	}
}

// TestSweepRewritesAHeadThatDoesNotOpen: the sweeper's fast path decides
// agreement from the heads themselves, not the drives' version stamps. A
// replica whose head no longer opens — under the right stamp — is not
// converged, so the next (not deep) pass rewrites it.
func TestSweepRewritesAHeadThatDoesNotOpen(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.Replicas = 3 })
	s := h.ctl.Session("w")
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := s.Put(ctx, "k", []byte(fmt.Sprintf("v%d", i)), PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := h.ctl.SweepTick(ctx); err != nil || !rep.Deep || !rep.Wrapped || rep.Repaired != 0 {
		t.Fatalf("deep pass over a healthy key: %+v, %v", rep, err)
	}
	victim := h.ctl.placement("k")[1]
	if err := h.drives[victim].P2PPut(store.MetaKey("k"), []byte("not a head record"), encodeVer(1)); err != nil {
		t.Fatal(err)
	}
	rep, err := h.ctl.SweepTick(ctx)
	if err != nil || rep.Deep || rep.Repaired != 1 || rep.RestoredRecords != 1 {
		t.Fatalf("pass after a head stopped opening: %+v, %v; want one record restored", rep, err)
	}
	m := new(store.Meta)
	if err := h.ctl.codec.DecodeMeta(driveMetaBytes(t, h, victim, "k"), "k", m); err != nil || m.Version != 1 {
		t.Fatalf("drive %d holds %+v, %v after the pass", victim, m, err)
	}
}
