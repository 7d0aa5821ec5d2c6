package main

import (
	"testing"
	"time"
)

// TestParseFlags pins what the command line builds: the core.Config the
// flags bind onto and the deployment around it.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := o.cfg; c.Replicas != 1 || !c.Encrypt || c.DisableObs || c.EC || c.TraceSample != 16 ||
		c.SweepInterval != 0 || c.DetectorInterval != 0 || c.AuditDir != "" {
		t.Errorf("default config: %+v", c)
	}
	if o.listen != ":8443" || o.state != "./pesos-state" || o.host != "localhost" || o.drives != "" ||
		o.initState || o.issueClient != "" || o.signMap != "" {
		t.Errorf("default deployment: %+v", o)
	}

	o, err = parseFlags([]string{"-no-encrypt", "-obs", "off", "-ec", "-ec-k", "6", "-ec-m", "3", "-replicas", "2",
		"-repair-interval", "30s", "-slow-op", "-1s", "-drives", "a:1,b:2", "-shard-map", "map.json", "-shard-id", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if c := o.cfg; c.Encrypt || !c.DisableObs || !c.EC || c.ECDataShards != 6 || c.ECParityShards != 3 || c.Replicas != 2 ||
		c.SweepInterval != 30*time.Second || c.SlowOpThreshold != -time.Second {
		t.Errorf("config from flags: %+v", c)
	}
	if o.drives != "a:1,b:2" || o.shardMap != "map.json" || o.shardID != 4 {
		t.Errorf("deployment from flags: %+v", o)
	}
	for _, on := range []string{"on", "true", "1"} {
		if o, err := parseFlags([]string{"-obs", on}); err != nil || o.cfg.DisableObs {
			t.Errorf("-obs %s: disabled=%v, %v", on, o.cfg.DisableObs, err)
		}
	}

	for _, gone := range []string{"-no-such-flag", "-sweep-bytes"} {
		if _, err := parseFlags([]string{gone, "1"}); err == nil {
			t.Errorf("%s parsed", gone)
		}
	}
	if _, err := parseFlags([]string{"-replicas", "many"}); err == nil {
		t.Error("a malformed value parsed")
	}
}
