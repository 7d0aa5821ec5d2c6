// Content server (§5.1): a multi-tenant object store serving content
// under per-object access control lists, with a third-party group
// authority granting access by certified group membership — the
// policy-language integration of external services the paper
// describes in §3.1.
//
// Run with: go run ./examples/contentserver
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/authority"
	"repro/internal/client"
	"repro/internal/policy/value"
	"repro/internal/testbed"
	"repro/internal/usecases"
)

func main() {
	cluster, err := testbed.Start(testbed.Options{Drives: 2, Replicas: 2, Enclave: true})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	// Three tenants and an administrator.
	alice, aliceID, _ := cluster.NewClient("alice")
	bob, bobID, _ := cluster.NewClient("bob")
	carol, carolID, _ := cluster.NewClient("carol")
	admin, adminID, _ := cluster.NewClient("admin")
	fp := testbed.Fingerprint

	// Plain ACL: alice+bob read, alice writes, admin deletes.
	acl := usecases.ContentServer(
		[]string{fp(aliceID), fp(bobID)},
		[]string{fp(aliceID)},
		[]string{fp(adminID)},
	)
	aclID, err := alice.PutPolicy(ctx, acl)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := alice.Put(ctx, "site/index.html", []byte("<h1>hello</h1>"), client.PutOptions{PolicyID: aclID}); err != nil {
		log.Fatal(err)
	}

	check := func(who string, cl *client.Client, certs ...*authority.Certificate) {
		_, _, err := cl.Get(ctx, "site/index.html", client.GetOptions{Certs: certs})
		fmt.Printf("  %-6s read: %v\n", who, errOrOK(err))
	}
	fmt.Println("ACL policy:")
	check("alice", alice)
	check("bob", bob)
	check("carol", carol)

	// Group-based access: a group authority certifies membership, and
	// the policy admits any client presenting a fresh membership
	// certificate — no policy change needed when the group grows.
	groups, err := authority.New("group-authority")
	if err != nil {
		log.Fatal(err)
	}
	groupPolicy := fmt.Sprintf(
		"read :- sessionKeyIs(U) and certificateSays(k'%s', 600, 'member'('staff', U))\n"+
			"update :- sessionKeyIs(k'%s')\n",
		groups.Fingerprint(), fp(aliceID))
	groupID, err := alice.PutPolicy(ctx, groupPolicy)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := alice.Put(ctx, "site/internal.html", []byte("staff only"), client.PutOptions{PolicyID: groupID}); err != nil {
		log.Fatal(err)
	}

	// The authority issues carol a staff membership certificate:
	// member('staff', k'<carol>').
	membership := func(member string) *authority.Certificate {
		fact := value.Tup("member", value.Str("staff"), value.PubKey(member))
		c, err := groups.Sign(fact, time.Now(), [32]byte{})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	fmt.Println("group policy (staff members only):")
	_, _, err = carol.Get(ctx, "site/internal.html", client.GetOptions{})
	fmt.Printf("  carol without certificate: %v\n", errOrOK(err))
	_, _, err = carol.Get(ctx, "site/internal.html", client.GetOptions{
		Certs: []*authority.Certificate{membership(fp(carolID))},
	})
	fmt.Printf("  carol with membership:     %v\n", errOrOK(err))
	// A certificate naming someone else does not help bob.
	_, _, err = bob.Get(ctx, "site/internal.html", client.GetOptions{
		Certs: []*authority.Certificate{membership(fp(carolID))},
	})
	fmt.Printf("  bob with carol's cert:     %v\n", errOrOK(err))

	// Only the admin may delete ACL'd content.
	if err := bob.Delete(ctx, "site/index.html"); err == nil {
		log.Fatal("bob deleted protected content")
	}
	if err := admin.Delete(ctx, "site/index.html"); err != nil {
		log.Fatalf("admin delete: %v", err)
	}
	fmt.Println("admin deleted site/index.html; bob could not")
}

func errOrOK(err error) string {
	if err == nil {
		return "OK"
	}
	return err.Error()
}
