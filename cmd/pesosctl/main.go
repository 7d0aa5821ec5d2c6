// Command pesosctl is the command-line client for a Pesos controller.
//
// Usage:
//
//	pesosctl -server https://localhost:8443 -cert alice-cert.pem \
//	         -key alice-key.pem -cacert ca-cert.pem <command> [args]
//
// Commands:
//
//	put <key> [<file|->]          store an object (value from file or stdin)
//	get <key>                     print an object
//	del <key>                     delete an object
//	ls [<prefix>]                 list readable objects (v2, paginated)
//	versions <key>                list stored versions
//	verify <key> <version>        print integrity evidence
//	repair <key>                  restore missing/corrupt replicas (§4.5)
//	policy-put <file|->           compile + store a policy, print its id
//	policy-get <id>               print a stored policy's canonical text
//	status                        controller statistics
//	metrics                       Prometheus text exposition from the controller
//	trace <id>                    span tree of a completed operation (hex trace id,
//	                              returned in the X-Pesos-Trace response header)
//	cluster status                this controller's shard: epoch, ranges, frozen ranges
//	cluster map                   the cluster shard map: epoch, per-shard endpoint,
//	                              key-hash ranges and drive set
//	cluster leases                per-shard HA leases from attestd (-attestd URL):
//	                              holder, generation, expiry, standby pool
//	cluster health                drive failure-detector states, anti-entropy
//	                              sweeper progress and re-replication counters
//	cluster failover <shard>      revoke a shard's lease so a hot standby takes
//	                              over now — the operator failover drill. attestd
//	                              accepts revokes from loopback only.
//
// ls walks the listing page by page through the v2 pagination tokens
// (-limit sets the page size, -pages caps how many pages to fetch,
// -token resumes from a printed token; -l adds version, size and
// policy columns). The listing is policy-filtered server-side: it
// shows only objects this client may read.
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// options are pesosctl's flags and the command line after them.
type options struct {
	server, certFile, keyFile, caFile string
	policyID, token, attestd          string
	version                           int64
	limit, pages                      int
	long                              bool
	args                              []string // the command and its arguments
}

// parseFlags parses pesosctl's command line.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("pesosctl", flag.ContinueOnError)
	fs.StringVar(&o.server, "server", "https://localhost:8443", "controller base URL")
	fs.StringVar(&o.certFile, "cert", "", "client certificate PEM")
	fs.StringVar(&o.keyFile, "key", "", "client key PEM")
	fs.StringVar(&o.caFile, "cacert", "", "controller CA certificate PEM")
	fs.StringVar(&o.policyID, "policy", "", "policy id to attach on put")
	fs.Int64Var(&o.version, "version", -1, "explicit version for put/get")
	fs.IntVar(&o.limit, "limit", 100, "ls: page size")
	fs.IntVar(&o.pages, "pages", 0, "ls: max pages to fetch (0 = all)")
	fs.BoolVar(&o.long, "l", false, "ls: long listing (version, size, storage class, policy)")
	fs.StringVar(&o.token, "token", "", "ls: resume from a pagination token")
	fs.StringVar(&o.attestd, "attestd", "http://127.0.0.1:9443", "attestd base URL (cluster leases/failover)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() == 0 {
		return o, fmt.Errorf("usage: pesosctl [flags] <command> [args]")
	}
	o.args = fs.Args()
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pesosctl: %v\n", err)
		os.Exit(2)
	}
	args := o.args

	tlsCfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if o.caFile != "" {
		caPEM, err := os.ReadFile(o.caFile)
		if err != nil {
			fatal(err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(caPEM) {
			fatal(fmt.Errorf("no certificates in %s", o.caFile))
		}
		tlsCfg.RootCAs = pool
	}
	if o.certFile != "" {
		cert, err := tls.LoadX509KeyPair(o.certFile, o.keyFile)
		if err != nil {
			fatal(err)
		}
		tlsCfg.Certificates = []tls.Certificate{cert}
	}
	cl := client.New(client.Config{BaseURL: o.server, TLS: tlsCfg})
	ctx := context.Background()

	switch args[0] {
	case "put":
		need(args, 2, "put <key> [<file|->]")
		value := readInput(args, 2)
		opts := client.PutOptions{PolicyID: o.policyID}
		if o.version >= 0 {
			opts.Version, opts.HasVersion = o.version, true
		}
		ver, err := cl.Put(ctx, args[1], value, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("stored %q version %d\n", args[1], ver)
	case "get":
		need(args, 2, "get <key>")
		opts := client.GetOptions{}
		if o.version >= 0 {
			opts.Version, opts.HasVersion = o.version, true
		}
		val, meta, err := cl.Get(ctx, args[1], opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "version %d policy %s\n", meta.Version, meta.PolicyID)
		os.Stdout.Write(val)
	case "del":
		need(args, 2, "del <key>")
		if err := cl.Delete(ctx, args[1]); err != nil {
			fatal(err)
		}
		fmt.Printf("deleted %q\n", args[1])
	case "ls":
		// Flag parsing stops at the subcommand, so accept the
		// conventional `ls -l` spelling as well as `-l ls`.
		if len(args) > 1 && args[1] == "-l" {
			o.long = true
			args = append(args[:1], args[2:]...)
		}
		opts := client.ListOptions{Limit: o.limit, Token: o.token}
		if len(args) > 1 {
			opts.Prefix = args[1]
		}
		for page := 0; ; page++ {
			p, err := cl.List(ctx, opts)
			if err != nil {
				fatal(err)
			}
			for _, e := range p.Entries {
				if o.long {
					class := e.Class
					if class == "" {
						class = "rep"
					}
					fmt.Printf("%-12d %-10d %-8s %-16.16s %s\n", e.Version, e.Size, class, policyLabel(e.PolicyID), string(e.Key))
				} else {
					fmt.Println(string(e.Key))
				}
			}
			if p.NextToken == "" {
				break
			}
			if o.pages > 0 && page+1 >= o.pages {
				fmt.Fprintf(os.Stderr, "pesosctl: more results; resume with -token %s\n", p.NextToken)
				break
			}
			opts.Token = p.NextToken
		}
	case "versions":
		need(args, 2, "versions <key>")
		vers, err := cl.ListVersions(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		for _, v := range vers {
			fmt.Println(v)
		}
	case "verify":
		need(args, 3, "verify <key> <version>")
		v, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			fatal(err)
		}
		info, err := cl.Verify(ctx, args[1], v)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("key:         %s\nversion:     %d\nsize:        %d\ncontentHash: %s\npolicy:      %s\npolicyHash:  %s\n",
			info.Key, info.Version, info.Size, info.ContentHash, info.Policy, info.PolicyHash)
	case "repair":
		need(args, 2, "repair <key>")
		versions, restored, err := cl.Repair(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("repaired %q: %d versions examined, %d records restored\n", args[1], versions, restored)
	case "policy-put":
		need(args, 2, "policy-put <file|->")
		src := readInput(args, 1)
		id, err := cl.PutPolicy(ctx, string(src))
		if err != nil {
			fatal(err)
		}
		fmt.Println(id)
	case "policy-get":
		need(args, 2, "policy-get <id>")
		text, err := cl.GetPolicy(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	case "status":
		var doc json.RawMessage
		if err := cl.Status(ctx, &doc); err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", doc)
	case "metrics":
		text, err := cl.Metrics(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	case "trace":
		need(args, 2, "trace <id>")
		d, err := cl.Trace(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		// The span tree as the controller's slow-op log renders it.
		fmt.Printf("trace %s  (%s total)\n%s", d.ID, time.Duration(d.DurationUs)*time.Microsecond, obs.FormatTree(d))
	case "cluster":
		need(args, 2, "cluster <status|map|leases|failover|health>")
		switch args[1] {
		case "status":
			clusterStatus(ctx, cl)
		case "map":
			clusterMap(ctx, cl)
		case "health":
			clusterHealth(ctx, cl)
		case "leases":
			clusterLeases(ctx, o.attestd)
		case "failover":
			need(args, 3, "cluster failover <shard>")
			shard, err := strconv.Atoi(args[2])
			if err != nil {
				fatal(fmt.Errorf("bad shard id %q", args[2]))
			}
			clusterFailover(ctx, o.attestd, shard)
		default:
			fatal(fmt.Errorf("unknown cluster subcommand %q", args[1]))
		}
	default:
		fatal(fmt.Errorf("unknown command %q", args[0]))
	}
}

// clusterStatus prints this controller's shard section of its status.
func clusterStatus(ctx context.Context, cl *client.Client) {
	var st struct {
		WrongShard uint64            `json:"wrongShard"`
		Shard      *core.ShardStatus `json:"shard"`
	}
	if err := cl.Status(ctx, &st); err != nil {
		fatal(err)
	}
	if st.Shard == nil {
		fmt.Println("controller is not sharded")
		return
	}
	fmt.Printf("shard:       %d\nepoch:       %d\nredirects:   %d\n", st.Shard.ID, st.Shard.Epoch, st.WrongShard)
	fmt.Printf("ranges:      %s\n", formatRanges(st.Shard.Ranges))
	if len(st.Shard.Frozen) > 0 {
		fmt.Printf("frozen:      %s  (handoff in flight)\n", formatRanges(st.Shard.Frozen))
	}
}

// clusterMap fetches and prints the cluster shard map this controller
// distributes. Display only: pesosctl holds no map key, so the
// signature is not verified here.
func clusterMap(ctx context.Context, cl *client.Client) {
	doc, err := cl.ClusterMap(ctx)
	if err != nil {
		fatal(err)
	}
	m, err := cluster.UnverifiedMap(doc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("epoch %d, %d shards (signature not verified client-side)\n", m.Epoch, len(m.Shards))
	for _, s := range m.Shards {
		fmt.Printf("  shard %-3d %-20s ranges %-30s drives %v (replicas %d)\n",
			s.ID, s.Endpoint, formatRanges(s.Ranges), s.Drives, s.Replicas)
	}
}

// clusterHealth prints the self-healing surface of the status: each
// drive's failure-detector state, the incremental sweeper's cursor
// and budget-bounded progress, and the re-replication counters.
func clusterHealth(ctx context.Context, cl *client.Client) {
	var st struct {
		Repairs      uint64              `json:"repairs"`
		RepairBytes  uint64              `json:"repairBytes"`
		SweepTicks   uint64              `json:"sweepTicks"`
		DriveDeaths  uint64              `json:"driveDeaths"`
		DriveRevives uint64              `json:"driveRevives"`
		DriveHealth  []core.DriveHealth  `json:"driveHealth"`
		Sweeper      *core.SweeperStatus `json:"sweeper"`
	}
	if err := cl.Status(ctx, &st); err != nil {
		fatal(err)
	}
	fmt.Println("drives:")
	for _, h := range st.DriveHealth {
		extra := ""
		if h.ProbeFails > 0 {
			extra = fmt.Sprintf("  (%d consecutive probe failures)", h.ProbeFails)
		}
		fmt.Printf("  %-20s %-8s since %s%s\n", h.Name, h.StateName, h.Since.Format(time.RFC3339), extra)
	}
	if sw := st.Sweeper; sw != nil {
		cursor := sw.Cursor
		if cursor == "" {
			cursor = "(start of keyspace)"
		}
		fmt.Printf("sweeper:     enabled=%v generation=%d cursor=%s\n", sw.Enabled, sw.Generation, cursor)
		fmt.Printf("  scanned:   %d keys in %d ticks (%d failures)\n", sw.Scanned, sw.Ticks, sw.Failures)
		fmt.Printf("  repaired:  %d keys, %d records, %d bytes\n", sw.Repaired, sw.Restored, sw.Bytes)
	}
	fmt.Printf("repairs:     %d objects, %d bytes re-replicated\n", st.Repairs, st.RepairBytes)
	fmt.Printf("transitions: %d drive deaths, %d revives\n", st.DriveDeaths, st.DriveRevives)
}

// clusterLeases prints every shard's HA lease: who holds it, at what
// generation, when it expires, and the hot standbys waiting behind it.
func clusterLeases(ctx context.Context, attestd string) {
	lc := &cluster.HTTPLeases{Base: attestd}
	leases, err := lc.Leases(ctx)
	if err != nil {
		fatal(err)
	}
	if len(leases) == 0 {
		fmt.Println("no leases (cluster HA not running)")
		return
	}
	now := time.Now()
	for _, l := range leases {
		state := "OPEN"
		if l.Holder != "" {
			if l.Expires.After(now) {
				state = fmt.Sprintf("held by %s (%s) for %s", l.Holder, l.Endpoint, l.Expires.Sub(now).Round(time.Millisecond))
			} else {
				state = fmt.Sprintf("EXPIRED (was %s)", l.Holder)
			}
		}
		fmt.Printf("shard %-3d gen %-4d %s\n", l.Shard, l.Gen, state)
		for _, sb := range l.Standbys {
			fmt.Printf("  standby %-20s (%s) heartbeat valid %s\n", sb.Name, sb.Endpoint, sb.Expires.Sub(now).Round(time.Millisecond))
		}
	}
}

// clusterFailover revokes a shard's lease: the next standby probe
// wins the open lease and performs a full takeover (credential
// rotation included), exercising the failover path on demand.
func clusterFailover(ctx context.Context, attestd string, shard int) {
	lc := &cluster.HTTPLeases{Base: attestd}
	if err := lc.Revoke(ctx, shard); err != nil {
		fatal(err)
	}
	fmt.Printf("shard %d lease revoked; a standby will take over within one probe interval\n", shard)
}

// formatRanges renders a hash range list compactly.
func formatRanges(ranges []core.HashRange) string {
	out := make([]string, len(ranges))
	for i, r := range ranges {
		out[i] = r.String()
	}
	return strings.Join(out, " ")
}

// readInput reads the value argument at index i: a file name, "-" for
// stdin, or stdin when absent.
func readInput(args []string, i int) []byte {
	if len(args) <= i || args[i] == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		return data
	}
	data, err := os.ReadFile(args[i])
	if err != nil {
		fatal(err)
	}
	return data
}

// policyLabel abbreviates a policy id for the long listing.
func policyLabel(id string) string {
	if id == "" {
		return "-"
	}
	return id
}

func need(args []string, n int, usage string) {
	if len(args) < n {
		fatal(fmt.Errorf("usage: pesosctl %s", usage))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pesosctl: %v\n", err)
	os.Exit(1)
}
