package ownlint_test

import (
	"testing"

	"horus/internal/analysis/analysistest"
	"horus/internal/analysis/ownlint"
)

func TestOwnlint(t *testing.T) {
	analysistest.Run(t, ownlint.Analyzer, "horus/internal/layers/ownfix")
}

func TestOwnlintRetention(t *testing.T) {
	analysistest.Run(t, ownlint.Analyzer, "horus/internal/layers/retainfix")
}
