package testbed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
)

func TestEndToEndPutGet(t *testing.T) {
	c, err := Start(Options{Drives: 2, Enclave: true, Replicas: 2})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer c.Close()

	cl, _, err := c.NewClient("alice")
	if err != nil {
		t.Fatalf("new client: %v", err)
	}
	ctx := context.Background()

	ver, err := cl.Put(ctx, "greeting", []byte("hello pesos"), client.PutOptions{})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if ver != 0 {
		t.Errorf("first version = %d, want 0", ver)
	}
	got, meta, err := cl.Get(ctx, "greeting", client.GetOptions{})
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, []byte("hello pesos")) {
		t.Errorf("get = %q, want %q", got, "hello pesos")
	}
	if meta.Version != 0 {
		t.Errorf("meta version = %d, want 0", meta.Version)
	}

	// Update bumps the version; history stays readable.
	if _, err := cl.Put(ctx, "greeting", []byte("hello again"), client.PutOptions{}); err != nil {
		t.Fatalf("update: %v", err)
	}
	old, _, err := cl.Get(ctx, "greeting", client.GetOptions{Version: 0, HasVersion: true})
	if err != nil {
		t.Fatalf("get v0: %v", err)
	}
	if !bytes.Equal(old, []byte("hello pesos")) {
		t.Errorf("get v0 = %q, want original", old)
	}

	// Both drives should hold replicas (meta + 2 object versions + at
	// least something on each).
	for i, d := range c.Drives {
		if d.Len() == 0 {
			t.Errorf("drive %d holds no keys; replication failed", i)
		}
	}

	if err := cl.Delete(ctx, "greeting"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := cl.Get(ctx, "greeting", client.GetOptions{}); err == nil {
		t.Fatal("get after delete succeeded")
	}
}

func TestEndToEndPolicyEnforcement(t *testing.T) {
	c, err := Start(Options{Drives: 1, Enclave: true})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	alice, aliceID, err := c.NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, bobID, err := c.NewClient("bob")
	if err != nil {
		t.Fatal(err)
	}

	// Content-server policy (§5.1): both read, only alice updates.
	src := fmt.Sprintf(`
		read :- sessionKeyIs(k'%s') or sessionKeyIs(k'%s')
		update :- sessionKeyIs(k'%s')
	`, Fingerprint(aliceID), Fingerprint(bobID), Fingerprint(aliceID))
	pid, err := alice.PutPolicy(ctx, src)
	if err != nil {
		t.Fatalf("put policy: %v", err)
	}

	if _, err := alice.Put(ctx, "doc", []byte("v1"), client.PutOptions{PolicyID: pid}); err != nil {
		t.Fatalf("alice put: %v", err)
	}
	if _, _, err := bob.Get(ctx, "doc", client.GetOptions{}); err != nil {
		t.Fatalf("bob read should pass: %v", err)
	}
	if _, err := bob.Put(ctx, "doc", []byte("evil"), client.PutOptions{}); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("bob update should be denied, got %v", err)
	}
	// Nobody holds delete permission.
	if err := alice.Delete(ctx, "doc"); err == nil {
		t.Fatal("delete should be denied (no delete permission in policy)")
	}
}

func TestEndToEndAsync(t *testing.T) {
	c, err := Start(Options{Drives: 1, Enclave: false})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	cl, _, err := c.NewClient("carol")
	if err != nil {
		t.Fatal(err)
	}
	// Async is PutOp + ResultOp; the synchronous sugar refuses it.
	if _, err := cl.Put(ctx, "async-key", []byte("payload"), client.PutOptions{Async: true}); err == nil {
		t.Fatal("Put accepted Async")
	}
	op, err := cl.PutOp(ctx, "async-key", []byte("payload"), client.PutOptions{Async: true})
	if err != nil || op.Err != nil || op.Op == 0 {
		t.Fatalf("async put: %+v %v", op, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, done, ok, err := cl.ResultOp(ctx, op.Op)
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		if ok && done {
			if res.Err != nil {
				t.Fatalf("async op failed: %v", res.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async op did not complete")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, _, err := cl.Get(ctx, "async-key", client.GetOptions{})
	if err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("get after async put: %v %q", err, got)
	}
}

func TestEndToEndTransaction(t *testing.T) {
	c, err := Start(Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	cl, _, err := c.NewClient("dave")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put(ctx, "acct-a", []byte("100"), client.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put(ctx, "acct-b", []byte("50"), client.PutOptions{}); err != nil {
		t.Fatal(err)
	}

	tx := cl.CreateTx()
	tx.AddRead("acct-a")
	tx.AddWrite(client.BatchPutOp{Key: "acct-b", Value: []byte("150")})
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit: %v", err)
	}
	results := tx.Results()
	if n := len(results.Reads) + len(results.Writes); n != 2 {
		t.Fatalf("results = %d ops, want 2", n)
	}
	got, _, err := cl.Get(ctx, "acct-b", client.GetOptions{})
	if err != nil || string(got) != "150" {
		t.Fatalf("acct-b after tx = %q (%v), want 150", got, err)
	}
}

func TestAttestationGatesSecrets(t *testing.T) {
	// A cluster with enclave mode uses attestation; verify the service
	// rejects quotes from a different (wrong-measurement) enclave.
	c, err := Start(Options{Drives: 1, Enclave: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rogue := c.Platform.Launch([]byte("tampered-binary"), []byte("testbed"), 0)
	if _, err := c.Attest.AttestEnclave(rogue); err == nil {
		t.Fatal("attestation accepted a tampered enclave measurement")
	}
}

func TestDriveTakeover(t *testing.T) {
	c, err := Start(Options{Drives: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	accounts := c.Drives[0].Accounts()
	if len(accounts) != 1 || accounts[0] != "pesos-admin" {
		t.Fatalf("after takeover accounts = %v, want only pesos-admin", accounts)
	}
}
