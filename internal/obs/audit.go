package obs

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The sealed audit decision log: an append-only,
// AEAD-sealed, hash-chained record of policy decisions — every DENY,
// plus sampled ALLOWs — written outside the enclave but verifiable
// and readable only with the sealing key.
//
// On-disk layout (all integers big-endian):
//
//	<dir>/audit-<startseq>.seg   length-prefixed sealed entries
//	<dir>/HEAD                   hex "seq hash mac\n" sidecar
//
// Entry i (1-based seq) is sealed with AES-256-GCM:
//
//	blob_i = nonce(12) || GCM(key, nonce, json(record_i),
//	                          AD = "pesos-audit-v1" || chain_{i-1} || seq_i)
//	chain_i = SHA256(chain_{i-1} || blob_i),  chain_0 = SHA256("pesos-audit-v1")
//
// Binding the previous chain hash and the sequence number into the
// AEAD additional data means a single flipped byte anywhere breaks
// decryption of that entry and desynchronizes every later one;
// segments rotate by size but the chain runs across them. HEAD pins
// the tail: seq and chain hash authenticated by HMAC(key), so
// truncating trailing entries (or whole segments) is detected even
// though the chain itself would still verify on the shorter prefix.
const (
	auditDomain       = "pesos-audit-v1"
	auditHeadFile     = "HEAD"
	auditSegPrefix    = "audit-"
	auditSegSuffix    = ".seg"
	defaultSegBytes   = 1 << 20
	auditQueueDepth   = 1024
	auditMaxEntrySize = 1 << 20
	headDebounce      = 100 * time.Millisecond
)

// AuditRecord is one policy decision.
type AuditRecord struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	TraceID  string    `json:"trace,omitempty"`
	Client   string    `json:"client"`
	Op       string    `json:"op"`
	Key      string    `json:"key"`
	Decision string    `json:"decision"` // "deny" | "allow"
	Reason   string    `json:"reason,omitempty"`
	PolicyID string    `json:"policy,omitempty"`
}

// AuditConfig configures the log.
type AuditConfig struct {
	// Dir is the log directory (created if missing).
	Dir string
	// Key is the 32-byte sealing key. In a deployment it derives from
	// the attested secrets, so the key never exists outside the
	// enclave; operators verify with policyc and the exported key.
	Key [32]byte
	// MaxSegmentBytes rotates segments at this size (0 = 1 MB).
	MaxSegmentBytes int64
	// SampleAllow seals one in N ALLOW decisions (0 = denies only).
	SampleAllow int
	// Dropped counts records lost to a saturated queue (optional).
	Dropped *Counter
}

// AuditLog is the appender: callers enqueue records on the request
// path (one channel send); a single goroutine seals and writes.
// Segment writes are buffered and reach the file together with the
// HEAD pin, so a steady trickle of records costs two file updates per
// debounce window rather than two syscalls per record.
type AuditLog struct {
	cfg  AuditConfig
	aead cipher.AEAD

	queue chan AuditRecord
	stop  chan struct{}
	done  chan struct{}

	// allowTick samples ALLOWs without touching mu on the hot path.
	allowTick atomic.Uint64

	mu          sync.Mutex
	seq         uint64
	chain       [32]byte
	seg         *os.File
	segw        *bufio.Writer
	segSize     int64
	headDirty   bool
	syncWaiters []chan struct{}
}

// auditAEAD builds the sealing AEAD from a key.
func auditAEAD(key [32]byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// chainSeed is the genesis chain value.
func chainSeed() [32]byte { return sha256.Sum256([]byte(auditDomain)) }

// OpenAudit opens (or resumes) an audit log. Resume verifies the
// existing chain end against HEAD before appending — a tampered log
// refuses to grow, it does not get papered over.
func OpenAudit(cfg AuditConfig) (*AuditLog, error) {
	if cfg.Dir == "" {
		return nil, errors.New("obs: audit log needs a directory")
	}
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = defaultSegBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
		return nil, err
	}
	aead, err := auditAEAD(cfg.Key)
	if err != nil {
		return nil, err
	}
	a := &AuditLog{
		cfg: cfg, aead: aead,
		queue: make(chan AuditRecord, auditQueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		chain: chainSeed(),
	}
	// Resume: replay the chain over existing segments.
	st, err := verifyDir(cfg.Dir, cfg.Key, nil)
	if err != nil {
		return nil, fmt.Errorf("obs: audit log in %s fails verification, refusing to append: %w", cfg.Dir, err)
	}
	a.seq, a.chain = st.seq, st.chain
	go a.run()
	return a, nil
}

// Record enqueues one decision; ALLOWs are sampled per the config.
// Never blocks the request path: a full queue drops the record and
// counts it.
func (a *AuditLog) Record(rec AuditRecord) {
	if a == nil {
		return
	}
	if rec.Decision == "allow" {
		switch {
		case a.cfg.SampleAllow <= 0:
			return
		case a.cfg.SampleAllow > 1:
			if a.allowTick.Add(1)%uint64(a.cfg.SampleAllow) != 0 {
				return
			}
		}
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	select {
	case a.queue <- rec:
	case <-a.stop:
	default:
		if a.cfg.Dropped != nil {
			a.cfg.Dropped.Inc()
		}
	}
}

// Sync blocks until every record enqueued before the call is sealed
// and written (tests and shutdown). Implemented as a marker record
// round trip: the waiter registers first, then enqueues the marker
// the writer acknowledges.
func (a *AuditLog) Sync() {
	if a == nil {
		return
	}
	ack := make(chan struct{})
	a.mu.Lock()
	a.syncWaiters = append(a.syncWaiters, ack)
	a.mu.Unlock()
	select {
	case a.queue <- AuditRecord{Decision: "__sync__"}:
		<-ack
	case <-a.stop:
	}
}

// Close flushes and closes the log.
func (a *AuditLog) Close() error {
	if a == nil {
		return nil
	}
	close(a.stop)
	<-a.done
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seg != nil {
		err := a.seg.Close()
		a.seg = nil
		return err
	}
	return nil
}

// run is the appender goroutine. HEAD is pinned once per batch (plus
// on Sync and Close), not per record: after sealing a record the
// writer lingers briefly for more, so both a burst and a steady
// trickle share one sidecar write-and-rename, and HEAD lags the chain
// by at most the debounce window. Sync still acks only after a pin,
// so a quiesced log always verifies.
func (a *AuditLog) run() {
	defer close(a.done)
	for {
		select {
		case rec := <-a.queue:
			a.consume(rec)
			debounce := time.NewTimer(headDebounce)
		batch:
			for {
				select {
				case rec := <-a.queue:
					a.consume(rec)
				case <-debounce.C:
					break batch
				case <-a.stop:
					break batch
				}
			}
			debounce.Stop()
			a.flushHead()
		case <-a.stop:
			// Drain what is already queued, then exit.
			for {
				select {
				case rec := <-a.queue:
					a.consume(rec)
				default:
					a.flushHead()
					return
				}
			}
		}
	}
}

// consume handles one queued record or sync marker.
func (a *AuditLog) consume(rec AuditRecord) {
	if rec.Decision == "__sync__" {
		a.flushHead()
		a.mu.Lock()
		waiters := a.syncWaiters
		a.syncWaiters = nil
		a.mu.Unlock()
		for _, w := range waiters {
			close(w)
		}
		return
	}
	if err := a.append(rec); err != nil {
		// The log is advisory on the write path; the failure counter
		// is the operator's signal.
		if a.cfg.Dropped != nil {
			a.cfg.Dropped.Inc()
		}
	}
}

// append seals one record onto the chain.
func (a *AuditLog) append(rec AuditRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec.Seq = a.seq + 1
	plain, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	var nonce [12]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return err
	}
	ad := additionalData(a.chain, rec.Seq)
	blob := make([]byte, 0, len(nonce)+len(plain)+a.aead.Overhead())
	blob = append(blob, nonce[:]...)
	blob = a.aead.Seal(blob, nonce[:], plain, ad)

	if err := a.ensureSegment(rec.Seq, int64(4+len(blob))); err != nil {
		return err
	}
	var lenbuf [4]byte
	binary.BigEndian.PutUint32(lenbuf[:], uint32(len(blob)))
	if _, err := a.segw.Write(lenbuf[:]); err != nil {
		return err
	}
	if _, err := a.segw.Write(blob); err != nil {
		return err
	}
	a.segSize += int64(4 + len(blob))
	a.seq = rec.Seq
	a.chain = nextChain(a.chain, blob)
	a.headDirty = true
	return nil
}

// flushHead lands the batch: buffered segment writes first, then the
// HEAD pin over them — never a pin for bytes that have not reached the
// segment file. A failure is surfaced on the dropped counter and the
// pin retried on the next flush (headDirty stays set).
func (a *AuditLog) flushHead() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.headDirty {
		return
	}
	if a.segw != nil {
		if err := a.segw.Flush(); err != nil {
			if a.cfg.Dropped != nil {
				a.cfg.Dropped.Inc()
			}
			return
		}
	}
	if err := a.writeHead(); err != nil {
		if a.cfg.Dropped != nil {
			a.cfg.Dropped.Inc()
		}
		return
	}
	a.headDirty = false
}

// ensureSegment opens the active segment, rotating by size.
func (a *AuditLog) ensureSegment(seq uint64, need int64) error {
	if a.seg != nil && a.segSize+need > a.cfg.MaxSegmentBytes && a.segSize > 0 {
		a.segw.Flush()
		a.seg.Close()
		a.seg, a.segw = nil, nil
	}
	if a.seg == nil {
		name := filepath.Join(a.cfg.Dir, fmt.Sprintf("%s%016d%s", auditSegPrefix, seq, auditSegSuffix))
		f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		a.seg, a.segw, a.segSize = f, bufio.NewWriterSize(f, 32<<10), st.Size()
	}
	return nil
}

// writeHead pins the chain tail: seq, chain hash, HMAC over both.
func (a *AuditLog) writeHead() error {
	mac := headMAC(a.cfg.Key, a.seq, a.chain)
	line := fmt.Sprintf("%d %s %s\n", a.seq, hex.EncodeToString(a.chain[:]), hex.EncodeToString(mac))
	tmp := filepath.Join(a.cfg.Dir, auditHeadFile+".tmp")
	if err := os.WriteFile(tmp, []byte(line), 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(a.cfg.Dir, auditHeadFile))
}

func additionalData(chain [32]byte, seq uint64) []byte {
	ad := make([]byte, 0, len(auditDomain)+32+8)
	ad = append(ad, auditDomain...)
	ad = append(ad, chain[:]...)
	ad = binary.BigEndian.AppendUint64(ad, seq)
	return ad
}

func nextChain(chain [32]byte, blob []byte) [32]byte {
	h := sha256.New()
	h.Write(chain[:])
	h.Write(blob)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func headMAC(key [32]byte, seq uint64, chain [32]byte) []byte {
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte("head"))
	mac.Write(binary.BigEndian.AppendUint64(nil, seq))
	mac.Write(chain[:])
	return mac.Sum(nil)
}

// chainState is the verifier's cursor.
type chainState struct {
	seq   uint64
	chain [32]byte
}

// auditSegments lists a directory's segment files in sequence order.
func auditSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, auditSegPrefix) && strings.HasSuffix(n, auditSegSuffix) {
			segs = append(segs, filepath.Join(dir, n))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// verifyDir replays the whole chain, optionally delivering each
// decrypted record to visit, and checks the end against HEAD.
func verifyDir(dir string, key [32]byte, visit func(AuditRecord)) (chainState, error) {
	st := chainState{chain: chainSeed()}
	aead, err := auditAEAD(key)
	if err != nil {
		return st, err
	}
	segs, err := auditSegments(dir)
	if err != nil {
		return st, err
	}
	for _, seg := range segs {
		if err := verifySegment(seg, aead, &st, visit); err != nil {
			return st, fmt.Errorf("%s: %w", filepath.Base(seg), err)
		}
	}
	// HEAD check: absent is acceptable only for an empty log.
	headPath := filepath.Join(dir, auditHeadFile)
	data, err := os.ReadFile(headPath)
	if err != nil {
		if os.IsNotExist(err) && st.seq == 0 {
			return st, nil
		}
		return st, fmt.Errorf("HEAD: %w", err)
	}
	var seq uint64
	var chainHex, macHex string
	if _, err := fmt.Sscanf(strings.TrimSpace(string(data)), "%d %s %s", &seq, &chainHex, &macHex); err != nil {
		return st, fmt.Errorf("HEAD: malformed: %w", err)
	}
	chainBytes, err1 := hex.DecodeString(chainHex)
	macBytes, err2 := hex.DecodeString(macHex)
	if err1 != nil || err2 != nil || len(chainBytes) != 32 {
		return st, errors.New("HEAD: malformed hex")
	}
	var headChain [32]byte
	copy(headChain[:], chainBytes)
	if !hmac.Equal(macBytes, headMAC(key, seq, headChain)) {
		return st, errors.New("HEAD: bad authentication code (forged or wrong key)")
	}
	if seq != st.seq || headChain != st.chain {
		return st, fmt.Errorf("log ends at seq %d but HEAD pins seq %d (entries truncated or replaced)", st.seq, seq)
	}
	return st, nil
}

// verifySegment replays one segment onto the chain cursor.
func verifySegment(path string, aead cipher.AEAD, st *chainState, visit func(AuditRecord)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var lenbuf [4]byte
	for {
		_, err := io.ReadFull(f, lenbuf[:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("entry %d: truncated length: %w", st.seq+1, err)
		}
		n := binary.BigEndian.Uint32(lenbuf[:])
		if n < 12 || n > auditMaxEntrySize {
			return fmt.Errorf("entry %d: implausible length %d", st.seq+1, n)
		}
		blob := make([]byte, n)
		if _, err := io.ReadFull(f, blob); err != nil {
			return fmt.Errorf("entry %d: truncated body: %w", st.seq+1, err)
		}
		seq := st.seq + 1
		plain, err := aead.Open(nil, blob[:12], blob[12:], additionalData(st.chain, seq))
		if err != nil {
			return fmt.Errorf("entry %d: seal broken (tampered or wrong key)", seq)
		}
		if visit != nil {
			var rec AuditRecord
			if err := json.Unmarshal(plain, &rec); err != nil {
				return fmt.Errorf("entry %d: bad record: %w", seq, err)
			}
			visit(rec)
		}
		st.seq = seq
		st.chain = nextChain(st.chain, blob)
	}
}

// VerifyAudit verifies a log directory end to end: every entry's
// seal, the hash chain, and the HEAD pin. Returns the entry count.
func VerifyAudit(dir string, key [32]byte) (uint64, error) {
	st, err := verifyDir(dir, key, nil)
	return st.seq, err
}

// ReadAudit decrypts and returns the last n records (n <= 0 returns
// all), verifying the full chain on the way.
func ReadAudit(dir string, key [32]byte, n int) ([]AuditRecord, error) {
	var recs []AuditRecord
	_, err := verifyDir(dir, key, func(r AuditRecord) { recs = append(recs, r) })
	if err != nil {
		return nil, err
	}
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs, nil
}

// DeriveAuditKey derives the sealing key from a deployment secret, so
// the key material never exists on disk next to the log.
func DeriveAuditKey(secret []byte) [32]byte {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte("pesos-audit-log-key-v1"))
	var k [32]byte
	copy(k[:], mac.Sum(nil))
	return k
}
