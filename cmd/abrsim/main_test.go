package main

import "testing"

func TestRunAllPoliciesSimBackend(t *testing.T) {
	for _, policy := range []string{"bb", "random", "rate", "bola"} {
		if err := run("gamma22", policy, "sim", 1, 6); err != nil {
			t.Errorf("policy %s: %v", policy, err)
		}
	}
}

func TestRunPacketBackend(t *testing.T) {
	if err := run("norway", "bb", "packet", 1, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope", "bb", "sim", 1, 4); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run("norway", "nope", "sim", 1, 4); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run("norway", "bb", "nope", 1, 4); err == nil {
		t.Error("unknown backend accepted")
	}
	for _, chunks := range []int{0, -3} {
		if err := run("norway", "bb", "sim", 1, chunks); err == nil {
			t.Errorf("-video-chunks %d accepted", chunks)
		}
	}
}
