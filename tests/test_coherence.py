"""Unit tests for the coherence-mode definitions."""

from __future__ import annotations

import pytest

from repro.errors import CoherenceError
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode, mode_from_label, mode_index


class TestModeProperties:
    def test_four_modes_exist(self):
        assert len(COHERENCE_MODES) == 4

    def test_non_coherent_requires_both_flushes(self):
        mode = CoherenceMode.NON_COH_DMA
        assert mode.requires_private_flush
        assert mode.requires_llc_flush
        assert not mode.uses_llc

    def test_llc_coherent_requires_only_private_flush(self):
        mode = CoherenceMode.LLC_COH_DMA
        assert mode.requires_private_flush
        assert not mode.requires_llc_flush
        assert mode.uses_llc

    def test_coherent_dma_needs_no_flush(self):
        mode = CoherenceMode.COH_DMA
        assert not mode.requires_private_flush
        assert not mode.requires_llc_flush
        assert mode.uses_llc

    def test_fully_coherent_needs_no_flush(self):
        mode = CoherenceMode.FULL_COH
        assert mode.uses_llc
        assert not mode.requires_private_flush
        assert not mode.requires_llc_flush

    def test_labels_match_paper_naming(self):
        labels = [mode.label for mode in COHERENCE_MODES]
        assert labels == ["non-coh-dma", "llc-coh-dma", "coh-dma", "full-coh"]

    def test_str_is_label(self):
        assert str(CoherenceMode.COH_DMA) == "coh-dma"


class TestLookups:
    @pytest.mark.parametrize("mode", list(CoherenceMode))
    def test_label_roundtrip(self, mode):
        assert mode_from_label(mode.label) is mode

    def test_unknown_label_raises(self):
        with pytest.raises(CoherenceError):
            mode_from_label("half-coherent")

    def test_mode_index_is_canonical_order(self):
        for index, mode in enumerate(COHERENCE_MODES):
            assert mode_index(mode) == index
