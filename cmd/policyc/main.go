// Command policyc is the standalone Pesos policy compiler: it checks,
// compiles, hashes and decompiles policy source, so operators can
// audit policies without a running controller.
//
// Usage:
//
//	policyc [-o compiled.psc] [-print] [-hash] policy.pol
//	echo "read :- sessionKeyIs(U)" | policyc -hash -
//	policyc -explain -session a11ce policy.pol
//
// The audit subcommands operate on the controller's sealed decision
// log (-audit-dir on pesos): verify re-checks every entry's AEAD seal,
// the hash chain and the HEAD pin; tail additionally decrypts and
// prints the last records. The sealing key is supplied as 64 hex
// digits (-key) or derived from a deployment secret (-secret), the
// same derivation the controller applies to its object key:
//
//	policyc audit verify -dir /var/pesos/audit -key <64 hex>
//	policyc audit tail -dir /var/pesos/audit -secret @objectkey.bin -n 20
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/policy/lang"
)

// options are policyc's compile-mode flags and its one argument, the
// policy file ("-" for stdin).
type options struct {
	out, session, op, file        string
	print, hash, analyze, explain bool
}

// parseFlags parses policyc's compile-mode command line.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("policyc", flag.ContinueOnError)
	fs.StringVar(&o.out, "o", "", "write the compiled binary program to this file")
	fs.BoolVar(&o.print, "print", true, "print the canonical (decompiled) policy text")
	fs.BoolVar(&o.hash, "hash", true, "print the policy hash / identifier")
	fs.BoolVar(&o.analyze, "analyze", true, "print the static policy analysis")
	fs.BoolVar(&o.explain, "explain", false, "print the clause index and, with -session, the session residual")
	fs.StringVar(&o.session, "session", "", "session key (hex fingerprint) to partially evaluate the policy for")
	fs.StringVar(&o.op, "op", "", "restrict -explain residuals to one permission (read, update, delete)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 1 {
		return o, fmt.Errorf("usage: policyc [-o file] [-print] [-hash] <policy-file | ->")
	}
	o.file = fs.Arg(0)
	return o, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "audit" {
		auditMain(os.Args[2:])
		return
	}
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set printed the usage
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "policyc: %v\n", err)
		os.Exit(2)
	}

	var src []byte
	if o.file == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(o.file)
	}
	if err != nil {
		fatal(err)
	}

	prog, err := policy.CompileSource(string(src))
	if err != nil {
		fatal(err)
	}
	bin, err := prog.Marshal()
	if err != nil {
		fatal(err)
	}
	if o.hash {
		h := prog.Hash()
		fmt.Printf("policy id: %x\n", h)
		fmt.Printf("compiled size: %d bytes (%d constants)\n", len(bin), len(prog.Consts))
	}
	if o.print {
		text, err := prog.Source()
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	}
	if o.analyze {
		a := policy.Analyze(prog)
		fmt.Printf("grants: read=%v update=%v delete=%v\n",
			a.Grants[lang.PermRead], a.Grants[lang.PermUpdate], a.Grants[lang.PermDelete])
		if len(a.Principals) > 0 {
			fmt.Printf("principals (%d):\n", len(a.Principals))
			for _, p := range a.Principals {
				fmt.Printf("  k'%s'\n", p)
			}
		}
		if len(a.Authorities) > 0 {
			fmt.Printf("certificate authorities (%d):\n", len(a.Authorities))
			for _, p := range a.Authorities {
				fmt.Printf("  k'%s'\n", p)
			}
		}
		var flags []string
		if a.UsesContent {
			flags = append(flags, "content-dependent (objSays)")
		}
		if a.UsesCertificates {
			flags = append(flags, "requires certified facts")
		}
		if a.UsesVersions {
			flags = append(flags, "version-controlled")
		}
		if a.Open(prog, lang.PermRead) {
			flags = append(flags, "read open to any authenticated client")
		}
		for _, f := range flags {
			fmt.Printf("note: %s\n", f)
		}
		fmt.Printf("%d clauses, %d predicate applications\n", a.Clauses, a.PredicateCount)
	}
	if o.explain {
		fmt.Println("clause index:")
		fmt.Print(policy.ExplainIndex(prog))
		if o.session != "" {
			perms := []lang.Perm{lang.PermRead, lang.PermUpdate, lang.PermDelete}
			if o.op != "" {
				p, err := permByName(o.op)
				if err != nil {
					fatal(err)
				}
				perms = []lang.Perm{p}
			}
			for _, p := range perms {
				r := policy.PartialEval(prog, p, o.session)
				fmt.Printf("residual for session k'%s', %s:\n", o.session, p)
				fmt.Print(indent(r.Explain()))
			}
		}
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, bin, 0o644); err != nil {
			fatal(err)
		}
	}
}

// auditMain implements `policyc audit <verify|tail>` over a sealed
// decision log directory.
func auditMain(args []string) {
	if len(args) < 1 {
		fatal(fmt.Errorf("usage: policyc audit <verify|tail> -dir <audit-dir> (-key <64 hex> | -secret <string|@file>) [-n count]"))
	}
	sub := args[0]
	fs := flag.NewFlagSet("audit "+sub, flag.ExitOnError)
	dir := fs.String("dir", "", "audit log directory")
	keyHex := fs.String("key", "", "sealing key as 64 hex digits")
	secret := fs.String("secret", "", "deployment secret to derive the key from (@file reads bytes from a file)")
	n := fs.Int("n", 20, "tail: number of records to print (0 = all)")
	fs.Parse(args[1:])
	if *dir == "" {
		fatal(fmt.Errorf("audit %s: need -dir", sub))
	}
	key, err := auditKey(*keyHex, *secret)
	if err != nil {
		fatal(err)
	}
	switch sub {
	case "verify":
		count, err := obs.VerifyAudit(*dir, key)
		if err != nil {
			fmt.Fprintf(os.Stderr, "policyc: audit verify FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("audit log OK: %d sealed records, chain and HEAD verified\n", count)
	case "tail":
		recs, err := obs.ReadAudit(*dir, key, *n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "policyc: audit tail: %v\n", err)
			os.Exit(1)
		}
		for _, r := range recs {
			line := fmt.Sprintf("%-6d %s  %-5s %-7s key=%q client=%s",
				r.Seq, r.Time.Format("2006-01-02T15:04:05.000Z07:00"), strings.ToUpper(r.Decision), r.Op, r.Key, r.Client)
			if r.PolicyID != "" {
				line += " policy=" + r.PolicyID
			}
			if r.TraceID != "" {
				line += " trace=" + r.TraceID
			}
			if r.Reason != "" {
				line += "  (" + r.Reason + ")"
			}
			fmt.Println(line)
		}
	default:
		fatal(fmt.Errorf("unknown audit subcommand %q (want verify or tail)", sub))
	}
}

// auditKey resolves the sealing key from -key or -secret.
func auditKey(keyHex, secret string) ([32]byte, error) {
	var key [32]byte
	switch {
	case keyHex != "":
		b, err := hex.DecodeString(keyHex)
		if err != nil || len(b) != 32 {
			return key, fmt.Errorf("-key must be 64 hex digits (32 bytes)")
		}
		copy(key[:], b)
	case secret != "":
		material := []byte(secret)
		if strings.HasPrefix(secret, "@") {
			b, err := os.ReadFile(secret[1:])
			if err != nil {
				return key, err
			}
			material = b
		}
		key = obs.DeriveAuditKey(material)
	default:
		return key, fmt.Errorf("need -key or -secret to unseal the audit log")
	}
	return key, nil
}

func permByName(name string) (lang.Perm, error) {
	for p := lang.PermRead; p < lang.NumPerms; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown permission %q (want read, update or delete)", name)
}

func indent(s string) string {
	out := ""
	for _, line := range strings.SplitAfter(strings.TrimRight(s, "\n"), "\n") {
		out += "  " + line
	}
	return out + "\n"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "policyc: %v\n", err)
	os.Exit(1)
}
