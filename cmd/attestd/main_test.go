package main

import (
	"errors"
	"flag"
	"testing"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o != (options{listen: "127.0.0.1:9443"}) {
		t.Errorf("defaults: %+v", o)
	}

	o, err = parseFlags([]string{"-listen", ":9000", "-platform-key", "platform-pub.pem", "-obs-listen", "127.0.0.1:9100"})
	if err != nil {
		t.Fatal(err)
	}
	if o != (options{listen: ":9000", keyFile: "platform-pub.pem", obsListen: "127.0.0.1:9100"}) {
		t.Errorf("from flags: %+v", o)
	}

	if _, err := parseFlags([]string{"-no-such-flag", "1"}); err == nil {
		t.Error("an unknown flag parsed")
	}
	// main returns, exit status 0, on a request for help.
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}
