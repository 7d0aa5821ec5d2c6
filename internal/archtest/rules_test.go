package archtest

// core is the trusted controller's package.
var core = []string{"internal/core/*.go"}

// module is every non-test Go file.
var module = []string{"..."}

// surface is the controller's wire surface, both ends: the controller,
// its client and the two commands that serve and call it.
var surface = []string{"internal/core/*.go", "internal/client/*.go", "cmd/pesos/*.go", "cmd/pesosctl/*.go"}

const langPkg = "repro/internal/policy/lang"

const wirePkg = "repro/internal/kinetic/wire"

// rules is the architecture, one invariant a row. A simplification that
// deletes a path adds the rule that keeps it deleted, with a mutant that
// brings it back.
var rules = []rule{
	// The security argument, positively: every drive read happens in the
	// read engine, the range walk, repair's and the sweeper's probes and
	// the detector's — each hands what it reads to a bound opener or
	// reads no record bytes at all.
	{
		name: "drive-reads",
		check: onlyIn(sym{pkg: drive, names: []string{"Get", "GetValue", "GetVersion", "Range", "GetKeyRange", "GetLog", "Noop"}}, core,
			"fetchReplicated", "getChunkValue", "rangePage", "loadMetaNewest", "probe", "chunksIntact", "replicasConverged", "DetectorTick"),
		mutants: []mutant{{
			// A read through a connection held under another name.
			file: "internal/core/stream.go",
			old:  "_ = cl.Delete(ctx, store.ChunkKey(key, set, idx), nil, true)",
			new:  "_, _, _ = cl.Get(ctx, store.ChunkKey(key, set, idx))",
		}},
	},
	// Each record kind has one opener, bound to the key that was asked
	// for; the unbound decoder is not the controller's to call.
	{
		name:  "open-meta",
		check: onlyIn(sym{names: []string{"DecodeMeta"}}, core, "fetchMeta", "newestMeta"),
		mutants: []mutant{{
			// A second election among a head's copies.
			file: "internal/core/repair.go",
			old:  "copies[i], _, errs[i] = c.drives[di].pick().Get(ctx, store.MetaKey(key))",
			new:  "copies[i], _, errs[i] = c.drives[di].pick().Get(ctx, store.MetaKey(key))\n\t\t_ = c.codec.DecodeMeta(copies[i], key, new(store.Meta))",
		}},
	},
	{
		name:  "open-version",
		check: onlyIn(sym{names: []string{"DecodeVersion"}}, core, "fetchRecord", "repairObject"),
		mutants: []mutant{{
			file: "internal/core/stripe.go",
			old:  "v, err := p.pick().GetValue(ctx, store.ChunkKey(key, set, idx))",
			new:  "v, err := p.pick().GetValue(ctx, store.ChunkKey(key, set, idx))\n\t_, _ = c.codec.DecodeVersion(v.Value, key, set)",
		}},
	},
	{
		name:  "open-chunk",
		check: onlyIn(sym{names: []string{"DecodeChunkInto"}}, core, "openChunk", "repairChunk"),
		mutants: []mutant{{
			file: "internal/core/stripe.go",
			old:  "v, err := p.pick().GetValue(ctx, store.ChunkKey(key, set, idx))",
			new:  "v, err := p.pick().GetValue(ctx, store.ChunkKey(key, set, idx))\n\t_, _ = c.codec.DecodeChunkInto(v.Value, nil, key, set, idx)",
		}},
	},
	{
		name:  "open-record",
		check: nowhere(sym{names: []string{"DecodeRecord"}}, core...),
		mutants: []mutant{{
			// The unbound decoder, reached through a renamed codec.
			file: "internal/core/objects.go",
			old:  "return c.codec.DecodeVersion(val, key, version)",
			new:  "cd := c.codec\n\t\t\treturn cd.DecodeRecord(val)",
		}},
	},
	{
		name:  "open-policy",
		check: onlyIn(sym{names: []string{"openPolicy"}}, core, "fetchPolicy", "ExportRange"),
		mutants: []mutant{{
			file: "internal/core/objects.go",
			old:  "prog, err := c.loadPolicy(ctx, id)",
			new:  "prog, err := c.openPolicy(id)(nil)",
		}},
	},
	// The head record m\0key has one writer.
	{
		name:  "write-meta",
		check: onlyIn(sym{names: []string{"EncodeMeta"}}, core, "stage", "repairObject"),
		mutants: []mutant{{
			file: "internal/core/stream.go",
			old:  "if err := c.drives[di].pick().Put(ctx, dk, blob, nil, encodeVer(set), true); err != nil {",
			new:  "if err := c.drives[di].pick().Put(ctx, store.MetaKey(key), c.codec.EncodeMeta(meta), nil, encodeVer(set), true); err != nil {",
		}},
	},
	// A read is judged once: in planRead, which every read shape runs,
	// and in the listing's per-entry filter.
	{
		name:  "read-permission",
		check: onlyIn(sym{pkg: langPkg, names: []string{"PermRead"}}, core, "planRead", "scanObjects"),
		mutants: []mutant{{
			file: "internal/core/objects.go",
			old:  "lang.PermDelete",
			new:  "lang.PermRead",
		}},
	},
	{
		name:  "read-permission-sites",
		check: count(sym{pkg: langPkg, names: []string{"PermRead"}}, core, map[string]int{"internal/core/objects.go": 1, "internal/core/scan.go": 1}),
		mutants: []mutant{{
			file: "internal/core/scan.go",
			old:  "if meta, err = c.fetchMeta(ctx, key); err != nil {",
			new:  "if meta, err = c.fetchMeta(ctx, key); err != nil || c.checkPolicy(ctx, pe, lang.PermRead, sessionKey, key, meta, nil, opts.Certs) != nil {",
		}},
	},
	// The controller's wire surface is one version: no route of the
	// controller, its client or its two commands is spelled under /v1
	// (attestd's and kineticd's own APIs are other services). The /v1
	// object shim, its error envelope and the hand-kept op-class table
	// stay deleted, and so do the second mount and the names that told
	// one version from the other.
	{
		name:  "one-version",
		check: noLiteral(surface, `/v1/`),
		mutants: []mutant{{
			file: "internal/core/rest.go",
			old:  `"GET /v2/status"`,
			new:  `"GET /v1/status"`,
		}, {
			file: "internal/client/client.go",
			old:  `"/v2/tx"`,
			new:  `"/v1/tx"`,
		}, {
			file: "cmd/pesosctl/main.go",
			old:  `cl.Trace(ctx, args[1])`,
			new:  `cl.Trace(ctx, "/v1/trace/"+args[1])`,
		}},
	},
	// No /v1 object, listing, result or transaction route anywhere in
	// the module, examples and tools included.
	{
		name:  "object-routes",
		check: noLiteral(module, `^(PUT|POST|GET|DELETE)? ?/v1/(objects|results)`),
		mutants: []mutant{{
			file: "internal/core/rest.go",
			old:  `"GET /v2/objects/{key...}"`,
			new:  `"GET /v1/objects/{key...}"`,
		}},
	},
	{
		name:  "tx-route",
		check: noLiteral(module, `/v1/tx`),
		mutants: []mutant{{
			file: "internal/core/rest.go",
			old:  `"POST /v2/tx"`,
			new:  `"POST /v1/tx"`,
		}},
	},
	{
		name: "one-mount",
		check: gone(surface, "RESTServer.object", "objectReq", "registerV2",
			"handleGetV2", "handlePutV2", "handleDeleteV2", "handleResultV2", "putV2"),
		mutants: []mutant{{
			file: "internal/core/rest.go",
			old:  "func (s *RESTServer) handleResult(",
			new:  "func (s *RESTServer) handleResultV2(",
		}, {
			file: "internal/client/client.go",
			old:  "func (c *Client) put(",
			new:  "func (c *Client) putV2(",
		}},
	},
	{
		name:  "object-shim-gone",
		check: gone([]string{"internal/core/*.go"}, "httpError", "opForRequest"),
		mutants: []mutant{{
			file: "internal/core/rest.go",
			old:  "func writeError(w http.ResponseWriter, err error) {",
			new:  "func httpError(w http.ResponseWriter, err error) {",
		}},
	},
	// Every mutation stages, commits and publishes through one path, and
	// a cache detaches its own flights.
	{
		name: "pipeline-gone",
		check: gone(module, "Controller.putReplicas", "Controller.writeThrough", "Controller.stageWriteCtx",
			"Controller.planVersionCtx", "Controller.checkPolicyCtx", "Forget"),
		mutants: []mutant{{
			file: "internal/core/replicate.go",
			old:  "func (c *Controller) stage(",
			new:  "func (c *Controller) putReplicas(",
		}},
	},
	// The REST hop does not reflect: its hot shapes go through the one
	// hand-written codec (restcodec.go). encoding/json is the cold
	// routes' writer, the chunked replies' reader and the codec's
	// declared fallback.
	{
		name: "rest-codec",
		check: onlyIn(sym{pkg: "encoding/json", names: []string{"NewEncoder", "NewDecoder", "Marshal", "Unmarshal"}},
			[]string{"internal/core/rest*.go", "internal/client/*.go"}, "writeJSON", "ReadJSON", "decodeFallback"),
		mutants: []mutant{{
			file: "internal/core/rest.go",
			old:  "func reply(w http.ResponseWriter, v any) error {",
			new:  "func reply(w http.ResponseWriter, v any) error {\n\t_, _ = json.Marshal(v)",
		}},
	},
	// Every enumeration of drive keys is one checked page (rangePage)
	// in one merged walk.
	{
		name:  "range-page",
		check: onlyIn(sym{pkg: drive, names: []string{"Range", "GetKeyRange"}}, core, "rangePage"),
		mutants: []mutant{{
			// A context not spelled ctx: the text guard this rule
			// replaced looked for `.Range(ctx`.
			file: "internal/core/sweeper.go",
			old:  "if _, err := c.drives[di].pick().GetVersion(ctx, objKey); err != nil {",
			new:  "if _, err := c.drives[di].pick().Range(sctx, objKey, objKey, true, false, 1, false); err != nil {",
		}},
	},
	{
		name:  "range-walk-gone",
		check: gone(module, "sweepKeysAfter", "keysInRange"),
		mutants: []mutant{{
			file: "internal/core/rangewalk.go",
			old:  "func checkRange(",
			new:  "func keysInRange(",
		}},
	},
	// The second read entry point and repair's private health checks
	// stay deleted.
	{
		name:  "read-plan-gone",
		check: gone(core, "Controller.getObject", "Controller.healthyRecord", "Controller.recordHealthy", "Controller.chunkHealthy"),
		mutants: []mutant{{
			file: "internal/core/objects.go",
			old:  "func (c *Controller) readObject(",
			new:  "func (c *Controller) getObject(",
		}},
	},
	// A transaction is one request, POST /v2/tx: the controller holds
	// nothing between two of them.
	{
		name: "tx-state-gone",
		check: gone(module, "txState", "Session.CreateTx", "Session.AddRead", "Session.AddWrite",
			"Session.CommitTx", "Session.CheckResults"),
		mutants: []mutant{{
			file: "internal/core/tx.go",
			old:  "func (s *Session) Tx(",
			new:  "func (s *Session) CommitTx(",
		}},
	},
	// A key is locked in one table: every mutation takes its keys in
	// commits — a transaction its read set too, shared — and a streamed
	// upload takes it only to plan and to commit, never across its body.
	// The hashed stripes, the stream-lock map, the transaction lock
	// manager and the upload lock stay deleted.
	{
		name: "one-key-lock",
		check: onlyIn(sym{names: []string{"lock"}}, core,
			"putObject", "deleteObject", "putObjectStream", "commitStream", "repairObject", "batchPut", "transact"),
		mutants: []mutant{{
			// A lock taken through the table's address under another name.
			file: "internal/core/sweeper.go",
			old:  "if _, err := c.drives[di].pick().GetVersion(ctx, objKey); err != nil {",
			new:  "t := &c.commits\n\t\tdefer t.lock([]string{key}, nil)()\n\t\tif _, err := c.drives[di].pick().GetVersion(ctx, objKey); err != nil {",
		}},
	},
	{
		name: "key-lock-gone",
		check: gone(module, "writeLock", "writeLocks", "writeStripes", "lockStripes", "stripeIndex",
			"keyedLocks", "streamLocks", "uploads"),
		mutants: []mutant{{
			file: "internal/core/keylock.go",
			old:  "type keyLock struct {",
			new:  "type keyedLocks struct {",
		}, {
			file: "internal/core/core.go",
			old:  "commits keyLocks",
			new:  "commits keyLocks\n\twriteLocks [4096]sync.Mutex",
		}, {
			file: "internal/core/core.go",
			old:  "commits keyLocks",
			new:  "commits, uploads keyLocks",
		}},
	},
	// A chunk record is named by its chunk set — the id its upload drew,
	// or the version of a stub older than upload ids — never by the
	// version an upload plans, which two uploads of a key share: every
	// drive key, seal, opener and sweep of a chunk passes the set.
	{
		name: "chunk-set-names",
		check: argIs(core, "set", map[string]int{"ChunkKey": 1, "EncodeChunkInto": 2, "DecodeChunkInto": 3,
			"sealChunk": 2, "getChunkValue": 3, "openChunk": 2, "repairChunk": 3, "sweepChunks": 2}),
		mutants: []mutant{{
			file: "internal/core/stream.go",
			old:  "dk := store.ChunkKey(key, set, idx)",
			new:  "dk := store.ChunkKey(key, next, idx)",
		}, {
			file: "internal/core/stream.go",
			old:  "c.sweepChunks(context.WithoutCancel(ctx), key, set, chunks, l)",
			new:  "c.sweepChunks(context.WithoutCancel(ctx), key, next, chunks, l)",
		}},
	},
	// The object cache holds one head record per object, keyed by the
	// object key: a version's drive key addresses drives and nothing
	// else, and a delete purges the object with one Remove.
	{
		name: "object-cache-heads",
		check: onlyIn(sym{pkg: "repro/internal/store", names: []string{"ObjectKey"}}, core,
			"appendBatchOps", "fetchRecord", "repairObject", "replicaVersions", "replicasConverged"),
		mutants: []mutant{{
			file: "internal/core/replicate.go",
			old:  "c.objectCache.Put(m.Key, w.rec)",
			new:  "c.objectCache.Put(string(store.ObjectKey(m.Key, m.Version)), w.rec)",
		}},
	},
	{
		name:  "forget-versions-gone",
		check: gone(core, "forgetVersions"),
		mutants: []mutant{{
			file: "internal/core/objects.go",
			old:  "func (c *Controller) loadMeta(",
			new:  "func (c *Controller) forgetVersions(key string, head int64) {}\n\nfunc (c *Controller) loadMeta(",
		}},
	},
	// Every record read off the drives is one first-k-of-n fetch with
	// one order, one hedge timer and one demotion rule.
	{
		name:  "fetch-engine-gone",
		check: gone(core, "readHedged", "readReplicas", "orderByLatency", "Controller.readOrder"),
		mutants: []mutant{{
			file: "internal/core/objects.go",
			old:  "func fetchReplicated[T any](",
			new:  "func readReplicas[T any](",
		}},
	},
	// No read grows a timer of its own: time.NewTimer is the group
	// committer's gather poll and the fetch engine's one.
	{
		name:  "timers",
		check: count(sym{pkg: "time", names: []string{"NewTimer"}}, core, map[string]int{"internal/core/gcommit.go": 1, "internal/core/fetch.go": 1}),
		mutants: []mutant{{
			file: "internal/core/detector.go",
			old:  "probeCtx, cancel := context.WithTimeout(ctx, det.probeTimeout)",
			new:  "probeCtx, cancel := context.WithTimeout(ctx, det.probeTimeout)\n\t\t\tdefer time.NewTimer(det.probeTimeout).Stop()",
		}},
	},
	// Each drive has its own commit loop: no clock ships every drive's
	// batch in one wave.
	{
		name:  "commit-wave-gone",
		check: gone(core, "shipGeneration", "generationStallTimeout"),
		mutants: []mutant{{
			file: "internal/core/gcommit.go",
			old:  "gatherQuietPolls   = 2",
			new:  "gatherQuietPolls   = 2\n\tgenerationStallTimeout = 5 * time.Second",
		}},
	},
	// Every write is write-through, on every layer of the drive link: the
	// controller never asks a drive for write-back, no drive has a write
	// buffer to destage, and no client can ask it to. Field 11 and types
	// 16/17, write-back and FLUSH in Kinetic, stay unassigned.
	{
		name: "one-durability",
		check: all(
			nowhere(sym{pkg: wirePkg, names: []string{"SyncWriteBack", "SyncFlush", "TFlush", "TFlushResponse"}}, module...),
			nowhere(sym{pkg: "repro/internal/kinetic", names: []string{"OpWriteBack", "OpFlush"}}, module...),
			gone(module, "SyncWriteBack", "SyncFlush", "TFlush", "TFlushResponse", "OpWriteBack", "OpFlush",
				"Client.Flush", "writeKind", "NewChaosPlan")),
		mutants: []mutant{{
			// The drive answering FLUSH again.
			file: "internal/kinetic/drive.go",
			old:  "\tcase wire.TNoop:\n",
			new:  "\tcase wire.TNoop:\n\tcase wire.TFlush:\n\t\td.waitMedia(OpWrite, 0)\n",
		}, {
			// The client asking for one.
			file: "internal/kinetic/kclient/client.go",
			old:  "// Noop verifies connectivity and credentials.",
			new:  "// Flush forces buffered writes to media.\nfunc (c *Client) Flush(ctx context.Context) error { return c.Noop(ctx) }\n\n// Noop verifies connectivity and credentials.",
		}, {
			file: "internal/core/tx.go",
			old:  "\"repro/internal/authority\"\n)",
			new: "\"repro/internal/authority\"\n\t\"repro/internal/kinetic/wire\"\n)\n\n" +
				"func txSync(replicas int) wire.SyncMode {\n\tif replicas > 1 {\n\t\treturn wire.SyncWriteBack\n\t}\n\treturn wire.SyncWriteThrough\n}",
		}},
	},
	{
		name:  "trailing-flush-gone",
		check: gone(core, "trailingFlush", "Controller.driveBatch"),
		mutants: []mutant{{
			file: "internal/core/gcommit.go",
			old:  "func (g *groupScheduler) wait() { g.wg.Wait() }",
			new:  "func (g *groupScheduler) wait() { g.wg.Wait() }\n\nfunc (g *groupScheduler) trailingFlush(di int) {\n\t_ = g.c.drives[di].pick().Flush(context.Background())\n}",
		}, {
			file: "internal/core/replicate.go",
			old:  "func (c *Controller) commit(",
			new:  "func (c *Controller) driveBatch(ctx context.Context, di int, ops []wire.BatchOp, payload int) error {\n\treturn c.gcommit.enqueue(ctx, di, ops, payload)\n}\n\nfunc (c *Controller) commit(",
		}},
	},
	// The head record is opened by the codec's bound opener only, and
	// the sweeper decides from the copies its walk carries instead of
	// re-reading each head's version stamp.
	{
		name:  "head-codec-gone",
		check: gone([]string{"internal/..."}, "UnmarshalMeta"),
		mutants: []mutant{{
			file: "internal/store/store.go",
			old:  "func (c *Codec) DecodeMeta(",
			new:  "func (c *Codec) UnmarshalMeta(",
		}},
	},
	{
		name:  "head-stamp",
		check: nowhere(sym{names: []string{"GetVersion"}, arg: "MetaKey"}, core...),
		mutants: []mutant{{
			file: "internal/core/sweeper.go",
			old:  "if _, err := c.drives[di].pick().GetVersion(ctx, objKey); err != nil {",
			new:  "if _, err := c.drives[di].pick().GetVersion(ctx, store.MetaKey(key)); err != nil {",
		}},
	},
	// A handoff export is a repair with a second destination, and a
	// drive applies grouped batches only.
	{
		name:  "record-mover-gone",
		check: gone(module, "p2pCopy", "p2pCopyRange", "Client.Batch"),
		mutants: []mutant{{
			file: "internal/kinetic/kclient/client.go",
			old:  "func (c *Client) BatchGroups(",
			new:  "func (c *Client) Batch(",
		}},
	},
	// A multi-key write reads its heads in one wave (loadHeads) before
	// planning: batch.go and tx.go read no head of their own, and the
	// plans are handed their head.
	{
		name: "head-wave",
		check: onlyIn(sym{names: []string{"loadMeta", "loadHead"}}, core,
			"putObject", "planReadKey", "deleteObject", "loadHead", "loadHeads", "objectSource.Info", "objectSource.record", "putObjectStream", "commitStream"),
		mutants: []mutant{{
			// Through a receiver not spelled c.
			file: "internal/core/batch.go",
			old:  "c.loadHeads(ctx, heads, owned)",
			new:  "c.loadHeads(ctx, heads, owned)\n\tctl := c\n\t_, _ = ctl.loadMeta(ctx, owned[0])",
		}, {
			file: "internal/core/objects.go",
			old:  "func (c *Controller) planPut(ctx context.Context, pe *policyEval, sessionKey, key string, head headLoad, value []byte, opts PutOptions) (*replicaWrite, error) {",
			new:  "func (c *Controller) planPut(ctx context.Context, pe *policyEval, sessionKey, key string, head headLoad, value []byte, opts PutOptions) (*replicaWrite, error) {\n\thead = c.loadHead(ctx, key)",
		}},
	},
	// A drive's records live in its arena: only the arena maps memory,
	// and a stored slice leaves the skip list only as a copy, so a freed
	// block can be reused while a reply is still being written.
	{
		name:  "record-mappings",
		check: inFiles(sym{pkg: "syscall", names: []string{"Mmap", "Munmap"}}, module, "internal/kinetic/arena.go"),
		mutants: []mutant{{
			file: "cmd/kineticd/main.go",
			old:  "drive := kinetic.NewDrive(cfg)",
			new:  "drive := kinetic.NewDrive(cfg)\n\t_, _ = syscall.Mmap(-1, 0, 4096, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)",
		}},
	},
	{
		name: "stored-bytes",
		check: inFiles(sym{names: []string{"rec", "klen", "vlen", "recKey", "recParts"}},
			[]string{"internal/kinetic/*.go"}, "internal/kinetic/skiplist.go"),
		mutants: []mutant{{
			file: "internal/kinetic/drive.go",
			old:  "resp.Key = req.Key\n\tresp.Value = value",
			new:  "resp.Key = req.Key\n\tresp.Value = d.store.find(req.Key).rec",
		}},
	},
	// The drive-link MAC has one input, a request's body less its
	// value's bytes: MAC.tag is the only code in the wire package that
	// feeds an HMAC state, and NewMAC the only that keys one, so no path
	// MACs the value again or MACs some other serialization.
	{
		name: "one-mac-input",
		check: all(
			onlyIn(sym{names: []string{"h"}}, []string{"internal/kinetic/wire/*.go"}, "MAC.tag"),
			onlyIn(sym{pkg: "crypto/hmac", names: []string{"New"}}, []string{"internal/kinetic/wire/*.go"}, "NewMAC")),
		mutants: []mutant{{
			// The encoder MACs the value bytes again.
			file: "internal/kinetic/wire/wire.go",
			old:  "buf = appendField(buf, fHMAC, mac.tag(buf[frameHeaderLen:split], buf[split:]))",
			new: "mac.h.Reset()\n\t\tmac.h.Write(buf[frameHeaderLen:split])\n\t\tmac.h.Write(m.Value)\n\t\tmac.h.Write(buf[split:])\n\t\t" +
				"buf = appendField(buf, fHMAC, mac.h.Sum(nil))",
		}, {
			// Sign keys its own HMAC over the whole body.
			file: "internal/kinetic/wire/wire.go",
			old:  "m.HMAC = NewMAC(key).tag(m.macInput())",
			new:  "mac := hmac.New(sha256.New, key)\n\tmac.Write(m.marshalBody(nil))\n\tm.HMAC = mac.Sum(nil)",
		}},
	},
	// Both ends of a drive connection read frames into messages from
	// wire's one pool — the drive its requests, the client its replies
	// — and the client's own reply pools stay deleted.
	{
		name: "one-frame-pool",
		check: all(
			onlyIn(sym{pkg: wirePkg, names: []string{"ReadFrame"}}, []string{"internal/...", "cmd/..."}, "serveConn", "readLoop"),
			count(sym{pkg: wirePkg, names: []string{"TakeMessage"}}, []string{"internal/...", "cmd/..."},
				map[string]int{"internal/kinetic/server.go": 1, "internal/kinetic/kclient/client.go": 1}),
			gone([]string{"internal/kinetic/..."}, "replies", "bulkReplies", "replyPool", "newReplyPool")),
		mutants: []mutant{{
			// The drive reads each request into a fresh frame again.
			file: "internal/kinetic/server.go",
			old:  "req = wire.TakeMessage(n)",
			new:  "req = new(wire.Message)",
		}, {
			// The client keeps a pool of its own.
			file: "internal/kinetic/kclient/client.go",
			old:  "resp := wire.TakeMessage(n)",
			new:  "resp := replies.Get().(*wire.Message)",
		}},
	},
	// One benchmark: the YCSB trace generator feeds the harness in
	// benchmark/ and no other package, so a second harness beside it
	// does not come back unseen.
	{
		name:  "one-benchmark",
		check: importedOnlyIn("repro/internal/ycsb", module, "benchmark/..."),
		mutants: []mutant{{
			// A command that replays traces of its own.
			file: "cmd/kineticd/main.go",
			old:  "import (",
			new:  "import (\n\t\"repro/internal/ycsb\"",
		}},
	},
	// Every fuzz target runs in CI's fuzz-smoke job.
	{
		name:  "fuzz-smoke",
		check: fuzzSmoke,
		mutants: []mutant{{
			file: "internal/core/scan_test.go",
			old:  "func FuzzScanToken(",
			new:  "func FuzzScanTokens(",
		}},
	},
	// docs/storage.md's "Who opens what" names the rule that checks each
	// row.
	{
		name:  "doc-table",
		check: docTable,
		mutants: []mutant{{
			file: storageDoc,
			old:  "| `open-chunk`",
			new:  "| `open-chunks`",
		}},
	},
}
