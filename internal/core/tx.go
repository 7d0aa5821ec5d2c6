package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/authority"
	"repro/internal/kinetic/wire"
	"repro/internal/store"
	"repro/internal/vll"
)

// Transaction errors.
var (
	ErrNoSuchTx   = errors.New("pesos: unknown transaction id")
	ErrTxFinished = errors.New("pesos: transaction already committed or aborted")
)

// TxOpResult is the outcome of one operation inside a committed
// transaction, retrievable with CheckResults (§4.4).
type TxOpResult struct {
	Key     JSONKey // binary keys survive the JSON reply (the JSONKey rule)
	Op      string  // "read" or "write"
	Value   []byte  // read result
	Version int64   // version read or written
	Err     string  // per-op failure (policy denial aborts the tx instead)
}

// txState buffers a transaction until commit (§4.2's transaction
// buffer).
type txState struct {
	id       uint64
	reads    []string
	writes   map[string][]byte
	writeSeq []string // declaration order for deterministic results
	certs    []*authority.Certificate
	lock     *vll.Tx
	finished bool
	results  []TxOpResult
}

// CreateTx opens a transaction and returns its id (§4.4: createTx).
func (s *Session) CreateTx() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextTx++
	id := s.nextTx
	s.txs[id] = &txState{id: id, writes: make(map[string][]byte)}
	return id
}

// AddRead declares a key the transaction will read (§4.4: addRead).
func (s *Session) AddRead(txID uint64, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, err := s.txLocked(txID)
	if err != nil {
		return err
	}
	tx.reads = append(tx.reads, key)
	return nil
}

// AddWrite declares a key/value the transaction will write (§4.4:
// addWrite). Declaring the same key again replaces the value.
func (s *Session) AddWrite(txID uint64, key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, err := s.txLocked(txID)
	if err != nil {
		return err
	}
	if _, seen := tx.writes[key]; !seen {
		tx.writeSeq = append(tx.writeSeq, key)
	}
	tx.writes[key] = value
	return nil
}

// AddCertificates attaches certified facts used for the policy checks
// of every operation in the transaction.
func (s *Session) AddCertificates(txID uint64, certs ...*authority.Certificate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, err := s.txLocked(txID)
	if err != nil {
		return err
	}
	tx.certs = append(tx.certs, certs...)
	return nil
}

// AbortTx discards a transaction (§4.4: abortTx).
func (s *Session) AbortTx(txID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, err := s.txLocked(txID)
	if err != nil {
		return err
	}
	tx.finished = true
	if tx.lock != nil {
		s.ctl.locks.Finish(tx.lock)
	}
	delete(s.txs, txID)
	s.ctl.stats.TxAborts.Inc()
	return nil
}

// CommitTx executes the transaction with full isolation (§4.4:
// commitTx): VLL locks its read/write sets, every operation passes
// its policy check before any write is applied, then all writes go to
// the drives. A policy denial or version conflict aborts the whole
// transaction with no effects.
//
// Atomicity note: within one controller, VLL mutual exclusion makes
// the commit atomic with respect to other transactions; durability of
// partially-replicated writes after a controller crash is recovered
// from replicas, as the paper's design relies on (§4.4: "we rely on
// replication to recover from disk crashes").
func (s *Session) CommitTx(ctx context.Context, txID uint64) error {
	s.mu.Lock()
	tx, err := s.txLocked(txID)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	tx.finished = true
	readSet := append([]string(nil), tx.reads...)
	writeSet := make([]string, 0, len(tx.writes))
	writeSet = append(writeSet, tx.writeSeq...)
	s.mu.Unlock()

	// Reads of keys also written are served from the write set; they
	// must not appear in both VLL sets.
	readOnly := readSet[:0:0]
	for _, k := range readSet {
		if _, written := tx.writes[k]; !written {
			readOnly = append(readOnly, k)
		}
	}
	sort.Strings(readOnly)

	lock, err := s.ctl.locks.Begin(readOnly, writeSet)
	if err != nil {
		return err
	}
	s.mu.Lock()
	tx.lock = lock
	s.mu.Unlock()
	if err := lock.Wait(ctx); err != nil {
		s.ctl.locks.Finish(lock)
		return err
	}
	defer s.ctl.locks.Finish(lock)

	// Phase 1: plan every operation — its policy check included — before
	// any effect. A read key that is absent or another shard's fails
	// alone, in its result; any other failure of a plan, a denial first
	// of all, aborts.
	pe := &policyEval{}
	var results []TxOpResult
	for _, k := range readOnly {
		r := TxOpResult{Key: JSONKey(k), Op: "read"}
		var err error
		if r.Version, err = s.ctl.planRead(ctx, pe, s.clientKey, k, GetOptions{Certs: tx.certs}); err != nil {
			if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrWrongShard) {
				return s.txAbort(txID, err)
			}
			r.Err = err.Error()
		}
		results = append(results, r)
	}
	planned := make([]plannedWrite, 0, len(writeSet))
	for _, k := range writeSet {
		meta, next, err := s.ctl.planVersion(ctx, pe, s.clientKey, k, PutOptions{Certs: tx.certs})
		if err != nil {
			return s.txAbort(txID, err)
		}
		planned = append(planned, plannedWrite{key: k, next: next, meta: meta})
	}

	// Phase 2: execute. Reads first (snapshot under the locks: the
	// record of the version phase 1 planned), then writes.
	for i := range results {
		r := &results[i]
		if r.Err != "" {
			continue
		}
		rec, err := s.ctl.openPlanned(ctx, string(r.Key), r.Version, true)
		if err != nil {
			r.Version, r.Err = 0, err.Error()
			continue
		}
		r.Value = rec.Payload
	}
	// Writes commit as one batch stream per placement drive (all
	// drives concurrently) instead of sequential singleton puts per
	// key: the object and metadata records of every write stay paired
	// inside atomic wire messages, and a transaction touching many
	// keys pays max-of-replica latency, not a sum over keys.
	if err := s.ctl.commitTx(ctx, planned, tx.writes); err != nil {
		// Keys are VLL-locked, so a failure here means replica failure
		// or an out-of-band writer; surface it and abort.
		return s.txAbort(txID, err)
	}
	for _, pw := range planned {
		results = append(results, TxOpResult{Key: JSONKey(pw.key), Op: "write", Version: pw.next})
	}

	s.mu.Lock()
	tx.results = results
	s.mu.Unlock()
	s.ctl.stats.TxCommits.Inc()
	return nil
}

// plannedWrite is one transactional write planned under the VLL locks:
// the key, its next version and the current metadata (nil on creation).
type plannedWrite struct {
	key  string
	next int64
	meta *store.Meta
}

// commitTx stages a transaction's planned writes and commits them as
// one batch. Policy checks and version planning already happened under
// the VLL locks; the per-key mutation stripes are taken around the
// commit so non-transactional writers serialize against it.
func (c *Controller) commitTx(ctx context.Context, planned []plannedWrite, values map[string][]byte) error {
	if len(planned) == 0 {
		return nil
	}
	staged := make([]*replicaWrite, len(planned))
	keys := make([]string, len(planned))
	for i, pw := range planned {
		value := values[pw.key]
		m := store.Meta{Key: pw.key, Version: pw.next, Size: int64(len(value)), ContentHash: store.HashContent(value)}
		if pw.meta != nil {
			// Transactional writes keep the object's policy; the stored
			// hash is authoritative for the unchanged program.
			m.PolicyID, m.PolicyHash = pw.meta.PolicyID, pw.meta.PolicyHash
		}
		w, err := c.stage(pw.meta, m, value)
		if err != nil {
			return fmt.Errorf("pesos: tx write %q: %w", pw.key, err)
		}
		staged[i], keys[i] = w, pw.key
	}
	unlock := c.lockStripes(keys)
	defer unlock()
	// Sharding gate: a transaction commits atomically, so a single
	// foreign key fails the whole commit with the redirect error.
	release, err := c.beginWrite(ctx, keys...)
	if err != nil {
		return err
	}
	defer release()
	// Transactional commit records tolerate losing a single drive's
	// write buffer — the paper's design recovers partially-replicated
	// commits from the surviving replicas (§4.4) — so with replication
	// in play they ship write-back and the committer destages them
	// with a trailing flush instead of paying the write-through
	// penalty per batch. Unreplicated deployments have no second copy
	// to recover from and stay write-through.
	sync := wire.SyncWriteThrough
	if c.cfg.Replicas > 1 {
		sync = wire.SyncWriteBack
	}
	if err := c.commit(ctx, staged, sync); err != nil {
		return fmt.Errorf("pesos: tx commit: %w", err)
	}
	return nil
}

// CheckResults returns the per-operation outcomes of a committed
// transaction (§4.4: checkResults). The transaction stays queryable
// until the session expires.
func (s *Session) CheckResults(txID uint64) ([]TxOpResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, ok := s.txs[txID]
	if !ok {
		return nil, ErrNoSuchTx
	}
	if !tx.finished {
		return nil, fmt.Errorf("pesos: transaction %d not committed", txID)
	}
	return tx.results, nil
}

// txAbort releases the transaction after a failed commit, keeping the
// failure queryable.
func (s *Session) txAbort(txID uint64, cause error) error {
	s.mu.Lock()
	if tx, ok := s.txs[txID]; ok {
		tx.results = append(tx.results, TxOpResult{Op: "abort", Err: cause.Error()})
	}
	s.mu.Unlock()
	s.ctl.stats.TxAborts.Inc()
	return cause
}

// txLocked fetches a live transaction; caller holds s.mu.
func (s *Session) txLocked(txID uint64) (*txState, error) {
	tx, ok := s.txs[txID]
	if !ok {
		return nil, ErrNoSuchTx
	}
	if tx.finished {
		return nil, ErrTxFinished
	}
	return tx, nil
}
