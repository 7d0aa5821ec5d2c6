// Transactions (§4.4): atomic multi-object updates under the
// controller's per-key locks. A transaction is one request — the keys it reads and the
// writes it makes — so a transfer between two accounts reads both
// balances with their versions, then writes both on condition that
// neither moved, and retries when one did. Concurrent transfers
// between the same two accounts conserve the sum.
//
// Run with: go run ./examples/transactions
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"sync"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/testbed"
)

func main() {
	cluster, err := testbed.Start(testbed.Options{Drives: 1, Enclave: true})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	cl, _, err := cluster.NewClient("bank")
	if err != nil {
		log.Fatal(err)
	}

	// Seed two accounts.
	for k, v := range map[string]string{"acct/alice": "100", "acct/bob": "100"} {
		if _, err := cl.Put(ctx, k, []byte(v), client.PutOptions{}); err != nil {
			log.Fatal(err)
		}
	}

	// transfer moves amount between two accounts atomically. A read-only
	// transaction snapshots both balances and their versions; the writing
	// one names the next version of each, so it commits only if neither
	// account changed in between — otherwise it aborts with no effect
	// (version_conflict) and the transfer starts over from a new snapshot.
	transfer := func(from, to string, amount int) (res *client.TxResult, attempts int, err error) {
		for {
			attempts++
			snap, err := cl.Transact(ctx, []string{from, to}, nil)
			if err != nil {
				return nil, attempts, err
			}
			tx := cl.CreateTx()
			for i, delta := range []int{-amount, amount} {
				r := snap.Reads[i]
				if r.Err != nil {
					return nil, attempts, r.Err
				}
				balance, err := strconv.Atoi(string(r.Value))
				if err != nil {
					return nil, attempts, err
				}
				tx.AddWrite(client.BatchPutOp{
					Key: r.Key, Value: []byte(strconv.Itoa(balance + delta)),
					Version: r.Version + 1, HasVersion: true,
				})
			}
			var opErr *client.OpError
			if err := tx.Commit(ctx); errors.As(err, &opErr) && opErr.Code == string(core.CodeVersionConflict) {
				continue
			} else if err != nil {
				return nil, attempts, err
			}
			return tx.Results(), attempts, nil
		}
	}

	fmt.Println("transfer 30 alice -> bob:")
	res, _, err := transfer("acct/alice", "acct/bob", 30)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range res.Writes {
		fmt.Printf("  write %s -> v%d\n", w.Key, w.Version)
	}

	// Concurrent transfers in both directions between the same two
	// accounts: each commits against the versions it read or retries, so
	// no update is lost.
	var wg sync.WaitGroup
	var mu sync.Mutex
	commits, retries := 0, 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from, to := "acct/alice", "acct/bob"
			if i%2 == 1 {
				from, to = to, from
			}
			for j := 0; j < 5; j++ {
				_, attempts, err := transfer(from, to, i+1)
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				commits, retries = commits+1, retries+attempts-1
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	balance := func(key string) int {
		v, _, err := cl.Get(ctx, key, client.GetOptions{})
		if err != nil {
			log.Fatal(err)
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	a, b := balance("acct/alice"), balance("acct/bob")
	fmt.Printf("%d concurrent transfers committed after %d conflict retries\n", commits, retries)
	fmt.Printf("final balances: alice=%d bob=%d sum=%d\n", a, b, a+b)
	if a+b != 200 {
		log.Fatalf("sum %d, want 200: an update was lost", a+b)
	}
	// Net flow: workers 0 and 2 moved 5×(1+3) alice→bob, workers 1 and 3
	// moved 5×(2+4) bob→alice, after the first 30 alice→bob.
	if want := 100 - 30 - 20 + 30; a != want {
		log.Fatalf("alice=%d, want %d", a, want)
	}

	// An aborted transaction never reaches the controller.
	tx := cl.CreateTx()
	tx.AddWrite(client.BatchPutOp{Key: "acct/alice", Value: []byte("999999")})
	tx.Abort()
	fmt.Printf("after aborted tx, alice=%d (unchanged)\n", balance("acct/alice"))
}
