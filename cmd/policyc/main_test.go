package main

import "testing"

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"policy.pol"})
	if err != nil {
		t.Fatal(err)
	}
	if o != (options{file: "policy.pol", print: true, hash: true, analyze: true}) {
		t.Errorf("defaults: %+v", o)
	}

	o, err = parseFlags([]string{"-o", "policy.psc", "-print=false", "-hash=false", "-analyze=false",
		"-explain", "-session", "a11ce", "-op", "read", "-"})
	if err != nil {
		t.Fatal(err)
	}
	if o != (options{out: "policy.psc", session: "a11ce", op: "read", file: "-", explain: true}) {
		t.Errorf("from flags: %+v", o)
	}

	if _, err := parseFlags([]string{"-no-such-flag", "1", "policy.pol"}); err == nil {
		t.Error("an unknown flag parsed")
	}
	if _, err := parseFlags(nil); err == nil {
		t.Error("no policy file parsed")
	}
}
