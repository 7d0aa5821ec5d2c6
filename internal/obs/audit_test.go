package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testAuditKey() [32]byte { return DeriveAuditKey([]byte("test-secret")) }

// fillAudit writes n records through a fresh log and closes it.
func fillAudit(t *testing.T, dir string, n int, segBytes int64) {
	t.Helper()
	a, err := OpenAudit(AuditConfig{Dir: dir, Key: testAuditKey(), MaxSegmentBytes: segBytes, SampleAllow: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dec := "deny"
		if i%3 == 0 {
			dec = "allow"
		}
		a.Record(AuditRecord{
			TraceID: FormatTraceID(NewTraceID()), Client: "sha256:abcd", Op: "put",
			Key: fmt.Sprintf("tenants/%d/object-%d", i%4, i), Decision: dec,
			Reason: "rule r2: key prefix", PolicyID: "p1",
		})
	}
	a.Sync()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	fillAudit(t, dir, 60, 512) // tiny segments force rotation

	segs, err := auditSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation into >=3 segments, got %d", len(segs))
	}
	n, err := VerifyAudit(dir, testAuditKey())
	if err != nil {
		t.Fatalf("verify failed on a healthy log: %v", err)
	}
	// 40 denies always + 1-in-2 of 20 allows.
	if n < 40 || n > 60 {
		t.Fatalf("implausible entry count %d", n)
	}
	recs, err := ReadAudit(dir, testAuditKey(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("tail returned %d records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != n-4+uint64(i) {
			t.Fatalf("tail out of order: %+v", recs)
		}
		if r.Client == "" || r.Key == "" || r.TraceID == "" {
			t.Fatalf("record lost fields through seal round trip: %+v", r)
		}
	}
}

func TestAuditResumeAppends(t *testing.T) {
	dir := t.TempDir()
	fillAudit(t, dir, 10, 1<<20)
	n1, err := VerifyAudit(dir, testAuditKey())
	if err != nil {
		t.Fatal(err)
	}
	fillAudit(t, dir, 10, 1<<20) // reopen resumes the chain
	n2, err := VerifyAudit(dir, testAuditKey())
	if err != nil {
		t.Fatalf("verify failed after resume: %v", err)
	}
	if n2 <= n1 {
		t.Fatalf("resume did not append: %d -> %d", n1, n2)
	}
}

// TestAuditTamperByteFlip flips a single byte in a rotated (non-tail)
// segment and checks the verifier reports the seal break.
func TestAuditTamperByteFlip(t *testing.T) {
	dir := t.TempDir()
	fillAudit(t, dir, 60, 512)
	segs, err := auditSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need rotated segments: %v (%d)", err, len(segs))
	}
	victim := segs[0]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAudit(dir, testAuditKey()); err == nil {
		t.Fatal("verify passed on a tampered segment")
	} else if !strings.Contains(err.Error(), "seal broken") && !strings.Contains(err.Error(), "implausible") &&
		!strings.Contains(err.Error(), "truncated body") { // the flip landed in a length prefix
		t.Fatalf("unexpected tamper error: %v", err)
	}
	// A tampered log must refuse to resume appending.
	if _, err := OpenAudit(AuditConfig{Dir: dir, Key: testAuditKey()}); err == nil {
		t.Fatal("OpenAudit resumed a tampered log")
	}
}

// TestAuditTailTruncation chops the last entry off the tail segment;
// the chain itself still verifies on the prefix, so detection must
// come from the HEAD pin.
func TestAuditTailTruncation(t *testing.T) {
	dir := t.TempDir()
	fillAudit(t, dir, 10, 1<<20)
	segs, err := auditSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one segment: %v (%d)", err, len(segs))
	}
	// Re-verify to find entry boundaries, then drop the final entry.
	recs, err := ReadAudit(dir, testAuditKey(), 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Walk length prefixes to the start of the last entry.
	off, last := 0, 0
	for off < len(data) {
		last = off
		n := int(uint32(data[off])<<24 | uint32(data[off+1])<<16 | uint32(data[off+2])<<8 | uint32(data[off+3]))
		off += 4 + n
	}
	if err := os.WriteFile(segs[0], data[:last], 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyAudit(dir, testAuditKey())
	if err == nil {
		t.Fatalf("verify passed after truncating entry %d", len(recs))
	}
	if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "HEAD pins") {
		t.Fatalf("unexpected truncation error: %v", err)
	}
}

// TestAuditHeadForgery rewrites HEAD to match a truncated log without
// the key; the HMAC must catch it.
func TestAuditHeadForgery(t *testing.T) {
	dir := t.TempDir()
	fillAudit(t, dir, 5, 1<<20)
	head := filepath.Join(dir, auditHeadFile)
	data, err := os.ReadFile(head)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker edits the pinned seq (no key, MAC left stale).
	forged := strings.Replace(string(data), " ", "0 ", 1)
	if err := os.WriteFile(head, []byte(forged), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAudit(dir, testAuditKey()); err == nil {
		t.Fatal("verify accepted a forged HEAD")
	}
}

func TestAuditWrongKey(t *testing.T) {
	dir := t.TempDir()
	fillAudit(t, dir, 3, 1<<20)
	if _, err := VerifyAudit(dir, DeriveAuditKey([]byte("other-secret"))); err == nil {
		t.Fatal("verify passed with the wrong key")
	}
}

func TestAuditDenySampling(t *testing.T) {
	dir := t.TempDir()
	// SampleAllow 0: allows dropped entirely, denies always kept.
	a, err := OpenAudit(AuditConfig{Dir: dir, Key: testAuditKey()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Record(AuditRecord{Client: "c", Op: "get", Key: "k", Decision: "allow"})
	}
	a.Record(AuditRecord{Client: "c", Op: "get", Key: "k", Decision: "deny"})
	a.Sync()
	a.Close()
	recs, err := ReadAudit(dir, testAuditKey(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Decision != "deny" {
		t.Fatalf("deny-only sampling broken: %+v", recs)
	}
}

func TestNilAuditLogNoops(t *testing.T) {
	var a *AuditLog
	a.Record(AuditRecord{Decision: "deny"})
	a.Sync()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}
