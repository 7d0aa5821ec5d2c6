package main

import (
	"bytes"
	"errors"
	"flag"
	"testing"

	"repro/internal/kinetic"
)

func TestParseFlags(t *testing.T) {
	cfg, d, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, sim := cfg.Media.(kinetic.SimMedia); cfg.Name != "kinetic-0" || !sim || cfg.P2PAccount != nil || cfg.P2PDial != nil {
		t.Errorf("default drive config: %+v", cfg)
	}
	if d.listen != ":8123" || d.tlsCert != "" || d.tlsKey != "" || d.chaosListen != "" || d.obsListen != "" ||
		d.p2pCreds.Identity != kinetic.DefaultAdminIdentity || !bytes.Equal(d.p2pCreds.Key, kinetic.DefaultAdminKey) {
		t.Errorf("default deployment: %+v", d)
	}

	cfg, d, err = parseFlags([]string{"-listen", "127.0.0.1:9000", "-name", "kinetic-7", "-media", "hdd", "-hdd-scale", "0.25",
		"-tls-cert", "c.pem", "-tls-key", "k.pem", "-p2p-secret", "s3cret-p2p", "-chaos-listen", "127.0.0.1:9123",
		"-obs-listen", ":9100"})
	if err != nil {
		t.Fatal(err)
	}
	if hdd, ok := cfg.Media.(*kinetic.HDDMedia); !ok || hdd.TimeScale != 0.25 || cfg.Name != "kinetic-7" ||
		cfg.P2PAccount == nil || cfg.P2PAccount.Identity != P2PIdentity || string(cfg.P2PAccount.Key) != "s3cret-p2p" {
		t.Errorf("drive config from flags: %+v", cfg)
	}
	if d.listen != "127.0.0.1:9000" || d.tlsCert != "c.pem" || d.tlsKey != "k.pem" || d.chaosListen != "127.0.0.1:9123" ||
		d.obsListen != ":9100" || d.p2pCreds.Identity != P2PIdentity || string(d.p2pCreds.Key) != "s3cret-p2p" {
		t.Errorf("deployment from flags: %+v", d)
	}

	for _, args := range [][]string{
		{"-media", "ssd"},
		{"-p2p-secret", "short"},
		{"-no-such-flag", "1"},
	} {
		if _, _, err := parseFlags(args); err == nil {
			t.Errorf("%q parsed", args)
		}
	}
	// main returns, exit status 0, on a request for help.
	if _, _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}
