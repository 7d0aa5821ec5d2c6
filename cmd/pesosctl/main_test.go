package main

import (
	"reflect"
	"testing"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"get", "k"})
	if err != nil {
		t.Fatal(err)
	}
	want := options{server: "https://localhost:8443", attestd: "http://127.0.0.1:9443",
		version: -1, limit: 100, args: []string{"get", "k"}}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("defaults: %+v", o)
	}

	o, err = parseFlags([]string{"-server", "https://ctl:9000", "-cert", "a.pem", "-key", "a-key.pem",
		"-cacert", "ca.pem", "-policy", "p1", "-version", "3", "-limit", "7", "-pages", "2", "-l",
		"-token", "tok", "-attestd", "http://att:1", "ls", "media/"})
	if err != nil {
		t.Fatal(err)
	}
	want = options{server: "https://ctl:9000", certFile: "a.pem", keyFile: "a-key.pem", caFile: "ca.pem",
		policyID: "p1", token: "tok", attestd: "http://att:1", version: 3, limit: 7, pages: 2, long: true,
		args: []string{"ls", "media/"}}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("from flags: %+v", o)
	}

	if _, err := parseFlags([]string{"-no-such-flag", "1", "status"}); err == nil {
		t.Error("an unknown flag parsed")
	}
	if _, err := parseFlags(nil); err == nil {
		t.Error("no command parsed")
	}
}
