// Scan engine of the v2 API: prefix/range listing over the object
// namespace with opaque pagination tokens. GetKeyRange fans out
// concurrently across a cover of the placement ring (every drive when
// one is dead or lately revived); the per-drive sorted key streams are
// merge-deduplicated under the placement map, and every page is policy-
// filtered server-side so callers never observe keys they cannot
// read (the OPA lesson: enumeration must be policy-aware at the
// server, never client-side).
package core

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"

	"repro/internal/authority"
	"repro/internal/core/records"
	"repro/internal/policy/lang"
	"repro/internal/store"
)

// Scan page size bounds.
const (
	DefaultScanLimit = 100
	MaxScanLimit     = 512
)

// ScanOptions parameterizes one page of a listing.
type ScanOptions struct {
	// Prefix restricts the listing to keys with this prefix ("" lists
	// everything readable).
	Prefix string
	// Start, when set, begins the listing at the first key >= Start
	// (within the prefix). Ignored when Token resumes a listing.
	Start string
	// Limit caps the entries per page (0 selects DefaultScanLimit,
	// values above MaxScanLimit are clamped).
	Limit int
	// Token resumes a listing after a previous page. Tokens are
	// opaque: the resume position is sealed under an enclave-derived
	// key, so a token never discloses key material — in particular not
	// a policy-denied key the engine skipped at a page boundary.
	Token string
	// Certs are certified facts for the per-object policy checks.
	Certs []*authority.Certificate
}

// ScanEntry is one listed object: its key and current metadata. Keys
// ride as JSONKey so binary (non-UTF-8) keys survive the JSON body.
type ScanEntry struct {
	Key      JSONKey `json:"key"`
	Version  int64   `json:"version"`
	Size     int64   `json:"size"`
	PolicyID string  `json:"policy,omitempty"`
	// Class is the storage class ("ec:k+m" for erasure-coded streamed
	// objects, empty for fully replicated).
	Class string `json:"class,omitempty"`
}

// ScanPage is one page of a listing. NextToken is empty when the
// listing is known to be exhausted. ShardEpoch, on sharded
// controllers, is the shard map epoch the page was filtered under —
// every entry decision used that epoch's ownership view — so a
// cluster router can detect pages straddling a concurrent handoff
// and re-fetch instead of skipping or duplicating boundary keys.
type ScanPage struct {
	Entries    []ScanEntry `json:"entries"`
	NextToken  string      `json:"nextToken,omitempty"`
	ShardEpoch uint64      `json:"shardEpoch,omitempty"`
}

// Scan lists readable objects, one page per call.
func (s *Session) Scan(ctx context.Context, opts ScanOptions) (*ScanPage, error) {
	s.touch()
	return s.ctl.scanObjects(ctx, s.clientKey, opts)
}

// scanObjects serves one page. Every drive's range reply carries each
// metadata record beside its key, so the page is decided from what the
// drives reported — no per-key read, and the key cache is neither
// consulted nor filled: a listing cannot evict the working set of point
// reads. Per examined key the newest readable replica copy is decoded
// and the object's policy decides visibility.
func (c *Controller) scanObjects(ctx context.Context, sessionKey string, opts ScanOptions) (*ScanPage, error) {
	if strings.ContainsRune(opts.Prefix, 0) || strings.ContainsRune(opts.Start, 0) {
		return nil, fmt.Errorf("%w: scan bounds must not contain NUL", ErrInvalidArgument)
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = DefaultScanLimit
	}
	if limit > MaxScanLimit {
		limit = MaxScanLimit
	}
	lower, inclusive := opts.Prefix, true
	if opts.Start > lower {
		lower = opts.Start
	}
	if opts.Token != "" {
		resume, err := c.unsealScanToken(opts.Token, opts.Prefix)
		if err != nil {
			return nil, err
		}
		if resume >= lower {
			lower, inclusive = resume, false
		}
	}

	// Epoch-consistent ownership view: the whole page filters against
	// one snapshot, so it is exactly the listing of this shard at that
	// epoch even if a handoff commits mid-scan.
	shardEpoch, ownedRanges, sharded := c.shardSnapshot()

	page := &ScanPage{Entries: make([]ScanEntry, 0, limit), ShardEpoch: shardEpoch}
	var filtered uint64
	defer func() {
		// Load accounting: a scan page charges one read per listed
		// entry (meta-only, no payload bytes) so range-heavy workloads
		// show up in the balancer's histogram too.
		for i := range page.Entries {
			c.noteRead(string(page.Entries[i].Key), 0)
		}
		c.stats.Scans.Inc()
		c.stats.ScanFiltered.Add(filtered)
	}()
	// One policyEval for the whole page: the resolved residual and
	// request scratch are reused across every key sharing a policy, so
	// the filter loop pays zero policy compilation or cache lookups past
	// the first key per policy.
	pe := &policyEval{}
	var metas [2]store.Meta // decode slots, reused across the page's keys
	// The cover of the placement ring is asked: every key's window holds
	// two of its drives, so one faulty drive per window cannot hide a key
	// (listingDrives; docs/storage.md, "Why a listing asks a cover"). A
	// round one of them does not answer asks the rest too, and up to
	// Replicas-1 drives of the whole set may then fail it — every object
	// still has a surviving replica reporting it.
	drives, cover := c.listingDrives()
	w := c.drives.Heads(ctx, records.HeadScan{Drives: drives, Cover: cover, From: lower, Inclusive: inclusive,
		Prefix: opts.Prefix, Page: limit + 1, Tolerate: c.cfg.Replicas - 1})
	// The replies go back for reuse, each round's when the next is in
	// and the last when the page is built: everything the page keeps of
	// them has been copied out by then.
	defer w.Close()
	for {
		key, mask, ok := w.Next()
		if !ok {
			break
		}
		// Cheap filters first — the drive range's inclusive end can
		// admit the first key past the prefix, and sharded controllers
		// list only keys they own under the page's epoch snapshot
		// (anything else is migration residue the router gets from its
		// owner) — so residue never costs a decode.
		if !strings.HasPrefix(key, opts.Prefix) {
			continue
		}
		if sharded && !RangesContain(ownedRanges, store.ShardHash(key)) {
			continue
		}
		// Placement sanity: a key reported only by drives outside its
		// placement is a stale artifact (e.g. of a drive-set change),
		// not a live object. The filter uses drive bitmasks; past 64
		// drives it is skipped (a drive without a bit would silently drop
		// live keys) — the merge and the metadata binding still keep the
		// listing correct.
		if c.drives.Len() <= 64 && mask&c.placementMask(key) == 0 {
			continue
		}
		meta, _, err := w.Elect(key, nil, &metas)
		if err != nil {
			// No reported copy decodes as this key's: more than one drive
			// of its window is faulty, past what the cover answers for. Its
			// replicas are read directly before the page fails closed.
			if meta, err = c.drives.ReadHead(ctx, key, c.placement(key)); err != nil {
				return nil, err
			}
		}
		if err := c.checkPolicy(ctx, pe, lang.PermRead, sessionKey, key, meta, nil, opts.Certs); err != nil {
			if errors.Is(err, ErrDenied) {
				filtered++
				continue
			}
			return nil, err
		}
		page.Entries = append(page.Entries, ScanEntry{
			Key: JSONKey(key), Version: meta.Version, Size: meta.Size, PolicyID: meta.PolicyID,
			Class: meta.StorageClass(),
		})
		if len(page.Entries) == limit {
			// More keys may remain on the drives: hand back a resume token
			// positioned on the last *returned* key. Denied keys past it
			// are re-examined — and re-suppressed — next page, so no page
			// boundary ever leaks one.
			page.NextToken = c.sealScanToken(opts.Prefix, key)
			return page, nil
		}
	}
	if w.Err != nil {
		return nil, w.Err // coverage is gone: an error, not a listing with holes
	}
	return page, nil // the range is exhausted
}

// placementMask is the drive bitmask of a key's placement (dead-drive
// substitution applied).
func (c *Controller) placementMask(key string) uint64 {
	var m uint64
	for _, di := range c.placement(key) {
		m |= 1 << uint(di)
	}
	return m
}

// allDrives enumerates every drive index.
func allDrives(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Pagination tokens. A token is the resume key plus the listing's
// prefix, sealed with AES-GCM under a key derived from the attested
// object key. Sealing keeps tokens opaque (no key material leaks, not
// even of policy-denied keys the page skipped) and self-
// authenticating (a tampered token fails open, ErrBadToken). Tokens
// carry a position, not a snapshot: listings resumed under concurrent
// writes stay valid and serve the keys now present past the position.

const scanTokenInfo = "pesos-scan-token-v1"

// initScanTokens derives the token sealing key; called at bootstrap.
func (c *Controller) initScanTokens() error {
	mac := hmac.New(sha256.New, c.secrets.ObjectKey[:])
	mac.Write([]byte(scanTokenInfo))
	block, err := aes.NewCipher(mac.Sum(nil))
	if err != nil {
		return err
	}
	c.scanTokens, err = cipher.NewGCM(block)
	return err
}

// sealScanToken builds the opaque resume token for a position.
func (c *Controller) sealScanToken(prefix, resume string) string {
	plain := make([]byte, 0, len(prefix)+len(resume)+1)
	plain = append(plain, prefix...)
	plain = append(plain, 0) // keys and prefixes never contain NUL
	plain = append(plain, resume...)
	nonce := make([]byte, c.scanTokens.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		// Entropy failure: returning no token truncates pagination
		// instead of minting a forgeable one.
		return ""
	}
	sealed := c.scanTokens.Seal(nonce, nonce, plain, nil)
	return base64.RawURLEncoding.EncodeToString(sealed)
}

// unsealScanToken authenticates a token and returns its resume key.
// The token must belong to a listing with the same prefix.
func (c *Controller) unsealScanToken(token, prefix string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil || len(raw) < c.scanTokens.NonceSize() {
		return "", ErrBadToken
	}
	ns := c.scanTokens.NonceSize()
	plain, err := c.scanTokens.Open(nil, raw[:ns], raw[ns:], nil)
	if err != nil {
		return "", ErrBadToken
	}
	p, resume, ok := strings.Cut(string(plain), "\x00")
	if !ok || p != prefix {
		return "", fmt.Errorf("%w: token belongs to a different listing", ErrBadToken)
	}
	return resume, nil
}
