package cliutil

import (
	"flag"
	"testing"

	"mcost"
)

func newFlagSet() *flag.FlagSet {
	return flag.NewFlagSet("test", flag.ContinueOnError)
}

func TestDatasetFlagsLoad(t *testing.T) {
	fs := newFlagSet()
	df := RegisterDataset(fs, "words", 10_000, 10)
	if err := fs.Parse([]string{"-dataset", "uniform", "-n", "250", "-dim", "3"}); err != nil {
		t.Fatal(err)
	}
	d, err := df.Load(7)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 250 {
		t.Fatalf("loaded %d objects, want 250", d.N())
	}
	df.Kind = "nope"
	df.File = ""
	if _, err := df.Load(7); err == nil {
		t.Fatal("unknown dataset kind must fail")
	}
}

func TestTreeAndStorageOptions(t *testing.T) {
	fs := newFlagSet()
	tf := RegisterTree(fs, 42, true)
	sf := RegisterStorage(fs)
	if err := fs.Parse([]string{"-pagesize", "8192", "-workers", "2", "-fault-read-rate", "0.1"}); err != nil {
		t.Fatal(err)
	}
	if tf.Seed != 42 {
		t.Fatalf("seed default not honored: %d", tf.Seed)
	}
	storage := sf.Options(nil)
	if !storage.Paged {
		t.Fatal("an armed fault must imply paged storage")
	}
	if storage.Faults == nil || storage.Faults.ReadErrorRate != 0.1 {
		t.Fatalf("fault schedule not assembled: %+v", storage.Faults)
	}
	opt, err := tf.Options(storage)
	if err != nil {
		t.Fatal(err)
	}
	if opt.PageSize != 8192 || opt.Workers != 2 || !opt.Storage.Paged {
		t.Fatalf("options not assembled: %+v", opt)
	}

	// No faults, no -paged: plain in-memory stack.
	fs2 := newFlagSet()
	sf2 := RegisterStorage(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s := sf2.Options(nil); s.Paged || s.Faults != nil {
		t.Fatalf("default storage must be unpaged and fault-free: %+v", s)
	}
}

// treeOptions is tf.Options over plain in-memory storage.
func treeOptions(t *testing.T, tf *TreeFlags) mcost.Options {
	t.Helper()
	opt, err := tf.Options(mcost.StorageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// TestTreeOptionsLayout: -layout takes memory or arena; any other
// spelling fails Options, so no CLI can build without the check.
func TestTreeOptionsLayout(t *testing.T) {
	for layout, arena := range map[string]bool{"memory": false, "arena": true} {
		fs := newFlagSet()
		tf := RegisterTree(fs, 1, true)
		if err := fs.Parse([]string{"-layout", layout}); err != nil {
			t.Fatal(err)
		}
		if opt := treeOptions(t, tf); opt.Arena.Enabled != arena {
			t.Errorf("-layout %s: arena enabled = %v, want %v", layout, opt.Arena.Enabled, arena)
		}
	}
	for _, layout := range []string{"arena-mmap", "bogus"} {
		fs := newFlagSet()
		tf := RegisterTree(fs, 1, true)
		if err := fs.Parse([]string{"-layout", layout}); err != nil {
			t.Fatal(err)
		}
		if _, err := tf.Options(mcost.StorageOptions{}); err == nil {
			t.Errorf("-layout %s accepted", layout)
		}
	}
}

func TestBudgetFlagsTimeoutGate(t *testing.T) {
	fs := newFlagSet()
	RegisterBudget(fs, false)
	if fs.Lookup("budget-slack") == nil {
		t.Fatal("-budget-slack not registered")
	}
	if fs.Lookup("query-timeout") != nil {
		t.Fatal("-query-timeout must be gated off")
	}
	fs2 := newFlagSet()
	bf := RegisterBudget(fs2, true)
	if err := fs2.Parse([]string{"-budget-slack", "2.5", "-query-timeout", "30ms"}); err != nil {
		t.Fatal(err)
	}
	if bf.Slack != 2.5 || bf.Timeout.Milliseconds() != 30 {
		t.Fatalf("budget flags not parsed: %+v", bf)
	}
}

// TestLayoutAndRecalGates: a command that never serves from the tree
// (mcost-exp) registers neither -layout nor the -recal switch, but keeps
// the tree and recal tuning flags its experiments read.
func TestLayoutAndRecalGates(t *testing.T) {
	fs := newFlagSet()
	RegisterTree(fs, 42, false)
	RegisterRecal(fs, false)
	for _, name := range []string{"layout", "recal"} {
		if fs.Lookup(name) != nil {
			t.Fatalf("-%s must be gated off", name)
		}
	}
	for _, name := range []string{"pagesize", "seed", "workers", "recal-window", "recal-band"} {
		if fs.Lookup(name) == nil {
			t.Fatalf("-%s not registered", name)
		}
	}
	fs2 := newFlagSet()
	RegisterTree(fs2, 1, true)
	RegisterRecal(fs2, true)
	if fs2.Lookup("layout") == nil || fs2.Lookup("recal") == nil {
		t.Fatal("-layout and -recal must register when asked for")
	}
}

func TestBuildPicksEngine(t *testing.T) {
	fs := newFlagSet()
	df := RegisterDataset(fs, "uniform", 300, 3)
	tf := RegisterTree(fs, 1, true)
	shf := RegisterShards(fs, 1, "pivot", 1)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	d, err := df.Load(tf.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, treeOptions(t, tf), shf)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumShards() != 1 {
		t.Fatalf("1 shard must build a single tree, got %d shards", ix.NumShards())
	}

	shf.Shards = 3
	sx, err := Build(d, treeOptions(t, tf), shf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sx.ShardSizes()) != 3 {
		t.Fatalf("3 shards must build an index with 3 shards")
	}

	shf.Assign = "bogus"
	if _, err := Build(d, treeOptions(t, tf), shf); err == nil {
		t.Fatal("bad shard assignment must fail")
	}
}

// TestBuildRejectsBadShardFlags: -shards below one and an unknown
// -shard-assign fail the build whatever the shard count, instead of
// quietly building one tree.
func TestBuildRejectsBadShardFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "-3"},
		{"-shards", "0"},
		{"-shard-assign", "bogus"},
		{"-shards", "1", "-shard-assign", "bogus"},
	} {
		fs := newFlagSet()
		df := RegisterDataset(fs, "uniform", 300, 3)
		tf := RegisterTree(fs, 1, true)
		shf := RegisterShards(fs, 1, "pivot", 1)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		d, err := df.Load(tf.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(d, treeOptions(t, tf), shf); err == nil {
			t.Errorf("%v: build accepted", args)
		}
	}
}
