package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestResolveShards(t *testing.T) {
	shards, err := resolveShards("http://a:1, http://b:1,,http://c:1", "")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://a:1", "http://b:1", "http://c:1"}; !reflect.DeepEqual(shards, want) {
		t.Fatalf("shards = %v, want %v", shards, want)
	}

	dir := t.TempDir()
	ring := filepath.Join(dir, "ring")
	if err := os.WriteFile(ring, []byte("# fleet\nhttp://a:1\nhttp://b:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	shards, err = resolveShards("", ring)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("ring file shards = %v", shards)
	}

	if _, err := resolveShards("http://a:1", ring); err == nil {
		t.Error("-shards and -ring together: want error")
	}
	if _, err := resolveShards("", ""); err == nil {
		t.Error("neither membership source: want error")
	}
	if _, err := resolveShards(" , ,", ""); err == nil {
		t.Error("blank -shards list: want error")
	}
}
