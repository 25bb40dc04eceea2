"""Protocol machines realizing the paper's functionalities.

=======================  ====================================================
Module                   Paper protocol
=======================  ====================================================
``dolev_strong``         ΠRBC — Dolev–Strong over ``Fcert`` (Fact 1); each
                         signature covers ``(sid, run tag, sender, value)``
``ds_ubc``               ΠUBC with each ``FRBC`` realized by a Dolev–Strong
                         run (Figure 9 + Fact 1)
``ubc_protocol``         ΠUBC over ``FRBC`` instances (Figure 9, Lemma 1)
``fbc_protocol``         ΠFBC over ``FUBC`` + ``Wq(F*RO)`` + ``FRO``
                         (Figure 11, Lemma 2: realizes ``F^{2,2}_FBC``)
``tle_protocol``         ΠTLE over ``F∆,α_FBC`` (Figure 12, Theorem 1)
``sbc_protocol``         ΠSBC over ``FUBC`` + ``FTLE`` + ``FRO``
                         (Figure 14, Theorem 2)
``durs_protocol``        ΠDURS over ``FSBC`` + ``FRBC`` (Figure 16, Thm 3)
``voting_protocol``      ΠSTVS over ``FSBC`` + ``FRBC`` + ``FPKG`` +
                         ``FSKG`` (Figure 18, Theorem 4)
=======================  ====================================================

The multi-party protocols are packaged as *adapters*: one object holding
every party's per-party protocol state, exposing the same interface as the
ideal functionality it realizes.  A protocol written against the ideal
object runs unchanged against the adapter — the executable counterpart of
each "Π realizes F" statement, and the mechanism by which the composed
world of Corollary 1 is assembled.
"""

from repro.protocols.common import pad_message, unpad_message
from repro.protocols.dolev_strong import DolevStrongParty, make_dolev_strong_instance
from repro.protocols.ds_ubc import DolevStrongUBCAdapter
from repro.protocols.durs_protocol import DURSParty, make_durs_network
from repro.protocols.fbc_protocol import FBCProtocolAdapter
from repro.protocols.sbc_protocol import SBCParty, SBCProtocolAdapter
from repro.protocols.tle_protocol import TLEProtocolAdapter
from repro.protocols.ubc_protocol import UBCProtocolAdapter
from repro.protocols.voting_protocol import AuthorityParty, Election, VoterParty

__all__ = [
    "AuthorityParty",
    "DolevStrongParty",
    "DolevStrongUBCAdapter",
    "DURSParty",
    "Election",
    "FBCProtocolAdapter",
    "SBCParty",
    "SBCProtocolAdapter",
    "TLEProtocolAdapter",
    "UBCProtocolAdapter",
    "VoterParty",
    "make_dolev_strong_instance",
    "make_durs_network",
    "pad_message",
    "unpad_message",
]
