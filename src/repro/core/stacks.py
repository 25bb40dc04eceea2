"""Stack builders: assemble ideal / hybrid / composed worlds.

Every builder accepts ``backend=`` (name or
:class:`~repro.runtime.backend.ExecutionBackend`) selecting the execution
runtime for the session, and ``trace=`` to override its trace mode; the
default (``sequential``) reproduces the reference engine byte-for-byte.
See ARCHITECTURE.md for the full layer map.

Layer plumbing (composed SBC, the Corollary 1 world with both unfair
broadcasts left ideal)::

    SBCParty … SBCParty                      (top-of-stack parties)
        └── SBCProtocolAdapter (ΠSBC)
              ├── UnfairBroadcast (FUBC)     (session messages + Wake_Up)
              ├── RandomOracle (equivocation, digest = SBC msg_len)
              └── TLEProtocolAdapter (ΠTLE)
                    ├── RandomOracle (digest = TLE msg_len)
                    ├── QueryWrapper Wq(F*RO)   (TLE puzzle metering)
                    └── FBCProtocolAdapter (ΠFBC)
                          ├── UnfairBroadcast (FUBC)
                          ├── RandomOracle (digest = FBC msg_len)
                          └── QueryWrapper Wq(F*RO)  (FBC puzzle metering)

Each wrapped oracle is a *separate* instance — in UC each subroutine
session has its own resource budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.functionalities.certification import Certification
from repro.functionalities.dummy import (
    DummyBroadcastParty,
    DummyTLEParty,
    DummyURSParty,
    DummyVoterParty,
)
from repro.functionalities.durs import DelayedURS
from repro.functionalities.fbc import FairBroadcast
from repro.functionalities.keygen import AuthorityKeyGen, VoterKeyGen
from repro.functionalities.random_oracle import RandomOracle
from repro.functionalities.sbc import SimultaneousBroadcast
from repro.functionalities.tle import TimeLockEncryption
from repro.functionalities.ubc import UnfairBroadcast
from repro.functionalities.voting import VotingSystem
from repro.functionalities.wrapper import QueryWrapper
from repro.protocols.durs_protocol import make_durs_network
from repro.protocols.fbc_protocol import FBCProtocolAdapter
from repro.protocols.sbc_protocol import SBCParty, SBCProtocolAdapter
from repro.protocols.tle_protocol import TLEProtocolAdapter
from repro.protocols.ubc_protocol import UBCProtocolAdapter
from repro.protocols.voting_protocol import AuthorityParty, Election, VoterParty
from repro.runtime.backend import ExecutionBackend
from repro.uc.adversary import Adversary
from repro.uc.environment import Environment
from repro.uc.session import Session

#: A backend argument: a registry name, an instance, or None (default).
BackendArg = Union[str, ExecutionBackend, None]

#: Corollary 1 default parameters: Φ > 3, ∆ > 2, α = 3.
SBC_DEFAULTS = {"phi": 5, "delta": 3, "q": 4}

#: Φ and ∆ of hybrid and ideal elections and session runners: the ideal
#: FSBC has no Corollary 1 minima, so these worlds run shorter.
HYBRID_TIMING = {"phi": 4, "delta": 2}


def session_timing(
    mode: str, phi: Optional[int] = None, delta: Optional[int] = None
) -> Tuple[int, int]:
    """Φ and ∆ for a session in ``mode``; explicit values win.

    The composed world (ΠSBC over ΠTLE over ΠFBC) needs the Corollary 1
    minima, so it defaults to :data:`SBC_DEFAULTS`; the hybrid and ideal
    worlds default to :data:`HYBRID_TIMING`.
    """
    defaults = SBC_DEFAULTS if mode == "composed" else HYBRID_TIMING
    return (
        defaults["phi"] if phi is None else phi,
        defaults["delta"] if delta is None else delta,
    )


#: Wire sizes per layer (bytes).  FBC carries ΠTLE's puzzle ciphertexts,
#: which grow with q·τdec, hence the large FBC frame.
MSG_LEN_SBC = 192
MSG_LEN_TLE = 128
MSG_LEN_FBC = 8192


@dataclass
class _BaseStack:
    session: Session
    env: Environment
    parties: Dict[str, Any]
    mode: str

    def outputs(self) -> Dict[str, List[Any]]:
        """pid -> outputs handed to Z so far."""
        return {pid: list(party.outputs) for pid, party in self.parties.items()}

    def run_rounds(self, count: int) -> int:
        """Advance ``count`` empty rounds."""
        return self.env.run_rounds(count)

    def honest_outputs_done(self, session: Session) -> bool:
        """Completion predicate: every honest party has produced an output."""
        corrupted = session.corrupted
        for pid, party in self.parties.items():
            if not party.outputs and pid not in corrupted:
                return False
        return True


def _modes(mode: str, allowed: Sequence[str]) -> None:
    if mode not in allowed:
        raise ValueError(f"mode must be one of {list(allowed)}, got {mode!r}")


# ---------------------------------------------------------------------------
# FBC fixture (used by FBC tests/benches and by the composed TLE stack)
# ---------------------------------------------------------------------------


@dataclass
class FBCFixture:
    """A ΠFBC instance with its UBC, wrapper and oracles."""

    fbc: FBCProtocolAdapter
    ubc: Any
    wrapper: QueryWrapper
    oracle: RandomOracle
    star_oracle: RandomOracle


def build_fbc_fixture(
    session: Session,
    q: int,
    msg_len: int = MSG_LEN_FBC,
    real_ubc: bool = False,
    tag: str = "fbc",
) -> FBCFixture:
    """Assemble ΠFBC over (ideal or ΠUBC) unfair broadcast in ``session``."""
    ubc = (
        UBCProtocolAdapter(session, fid=f"PiUBC:{tag}")
        if real_ubc
        else UnfairBroadcast(session, fid=f"FUBC:{tag}")
    )
    star = RandomOracle(session, fid=f"F*RO:{tag}")
    wrapper = QueryWrapper(session, star, q=q, fid=f"Wq:{tag}")
    oracle = RandomOracle(session, fid=f"FRO:{tag}", digest_size=msg_len)
    fbc = FBCProtocolAdapter(
        session, ubc=ubc, wrapper=wrapper, oracle=oracle, msg_len=msg_len,
        fid=f"PiFBC:{tag}",
    )
    return FBCFixture(fbc=fbc, ubc=ubc, wrapper=wrapper, oracle=oracle, star_oracle=star)


# ---------------------------------------------------------------------------
# TLE stack
# ---------------------------------------------------------------------------


@dataclass
class TLEStack(_BaseStack):
    tle: Any = None
    fbc: Optional[Any] = None
    wrapper: Optional[QueryWrapper] = None

    def enc(self, pid: str, message: Any, tau: int) -> str:
        return self.parties[pid].enc(message, tau)

    def dec(self, pid: str, ciphertext: Any, tau: int) -> Any:
        return self.parties[pid].dec(ciphertext, tau)


def build_tle_stack(
    n: int = 3,
    mode: str = "hybrid",
    seed: int = 0,
    q: int = 4,
    delta: int = 2,
    alpha: int = 2,
    msg_len: int = MSG_LEN_TLE,
    adversary: Optional[Adversary] = None,
    backend: "BackendArg" = None,
    trace: Optional[str] = None,
) -> TLEStack:
    """Build a TLE world.

    Modes:
        * ``ideal``  — dummies over ``FTLE`` (leak = Cl + α, delay = ∆ + 1);
        * ``hybrid`` — ΠTLE over the ideal ``F∆,α_FBC`` (Theorem 1);
        * ``composed`` — ΠTLE over ΠFBC over ideal ``FUBC`` (∆ = α = 2).
    """
    _modes(mode, ("ideal", "hybrid", "composed"))
    session = Session(sid=f"tle-{mode}", seed=seed, adversary=adversary, backend=backend, trace=trace)
    pids = [f"P{i}" for i in range(n)]
    fbc = None
    wrapper = None
    if mode == "ideal":
        tle = TimeLockEncryption(
            session, leak=lambda cl: cl + alpha, delay=delta + 1, fid="FTLE"
        )
        parties = {pid: DummyTLEParty(session, pid, tle) for pid in pids}
    else:
        if mode == "hybrid":
            fbc = FairBroadcast(session, delta=delta, alpha=alpha, fid="FFBC")
        else:
            fixture = build_fbc_fixture(session, q=q)
            fbc = fixture.fbc
            wrapper = fixture.wrapper
        star = RandomOracle(session, fid="F*RO:tle")
        tle_wrapper = QueryWrapper(session, star, q=q, fid="Wq:tle")
        oracle = RandomOracle(session, fid="FRO:tle", digest_size=msg_len)
        tle = TLEProtocolAdapter(
            session, fbc=fbc, wrapper=tle_wrapper, oracle=oracle, msg_len=msg_len
        )
        parties = {}
        for pid in pids:
            party = DummyTLEParty(session, pid, tle)
            tle.attach(party)
            parties[pid] = party
        wrapper = wrapper or tle_wrapper
    env = Environment(session)
    return TLEStack(
        session=session, env=env, parties=parties, mode=mode,
        tle=tle, fbc=fbc, wrapper=wrapper,
    )


# ---------------------------------------------------------------------------
# SBC stack
# ---------------------------------------------------------------------------


@dataclass
class SBCStack(_BaseStack):
    sbc: Any = None
    ubc: Optional[Any] = None
    tle: Optional[Any] = None
    phi: int = 0
    delta: int = 0

    @property
    def delivery_round(self) -> int:
        """Round at which outputs appear, assuming the period opens at 0."""
        return self.phi + self.delta

    def delivery_budget(self, slack: int = 2) -> int:
        """Round budget for :meth:`run_until_delivery`."""
        return self.delivery_round + slack + 20

    def run_until_delivery(self, slack: int = 2) -> int:
        """Run rounds until every honest party has produced an output."""
        return self.env.run_until(
            self.honest_outputs_done, max_rounds=self.delivery_budget(slack)
        )

    def delivered(self) -> Dict[str, List[Any]]:
        """pid -> the delivered message batch (last Broadcast output)."""
        result = {}
        for pid, party in self.parties.items():
            batches = [o[1] for o in party.outputs if o and o[0] == "Broadcast"]
            result[pid] = batches[-1] if batches else None
        return result


def build_sbc_stack(
    n: int = 4,
    mode: str = "hybrid",
    seed: int = 0,
    phi: int = SBC_DEFAULTS["phi"],
    delta: int = SBC_DEFAULTS["delta"],
    q: int = SBC_DEFAULTS["q"],
    msg_len: int = MSG_LEN_SBC,
    adversary: Optional[Adversary] = None,
    backend: "BackendArg" = None,
    trace: Optional[str] = None,
) -> SBCStack:
    """Build an SBC world.

    Modes:
        * ``ideal``   — dummies over ``FΦ,∆,α_SBC`` (α = 2, matching the
          hybrid world's simulator advantage);
        * ``hybrid``  — ΠSBC over ideal ``FUBC`` + ``FTLE`` + ``FRO``
          (Theorem 2; ideal FTLE has leak = Cl + 1, so α = 2, ∆ ≥ 2);
        * ``composed`` — the Corollary 1 world: ΠSBC over ideal
          ``FUBC`` and ΠTLE-over-ΠFBC-over-ideal-``FUBC`` (α = 3, ∆ ≥ 3,
          Φ > 3).  Neither level swaps in ΠUBC.
    """
    _modes(mode, ("ideal", "hybrid", "composed"))
    session = Session(sid=f"sbc-{mode}", seed=seed, adversary=adversary, backend=backend, trace=trace)
    pids = [f"P{i}" for i in range(n)]
    ubc = None
    tle = None
    if mode == "ideal":
        alpha = 2
        sbc = SimultaneousBroadcast(session, phi=phi, delta=delta, alpha=alpha)
        parties = {pid: DummyBroadcastParty(session, pid, sbc) for pid in pids}
    else:
        ubc = UnfairBroadcast(session, fid="FUBC:sbc")
        if mode == "hybrid":
            tle = TimeLockEncryption(session, leak=lambda cl: cl + 1, delay=1, fid="FTLE")
        else:
            fixture = build_fbc_fixture(session, q=q)
            star = RandomOracle(session, fid="F*RO:tle")
            tle_wrapper = QueryWrapper(session, star, q=q, fid="Wq:tle")
            tle_oracle = RandomOracle(session, fid="FRO:tle", digest_size=MSG_LEN_TLE)
            tle = TLEProtocolAdapter(
                session,
                fbc=fixture.fbc,
                wrapper=tle_wrapper,
                oracle=tle_oracle,
                msg_len=MSG_LEN_TLE,
            )
        oracle = RandomOracle(session, fid="FRO:sbc", digest_size=msg_len)
        sbc = SBCProtocolAdapter(
            session, ubc=ubc, tle=tle, oracle=oracle,
            phi=phi, delta=delta, msg_len=msg_len,
        )
        parties = {pid: SBCParty(session, pid, sbc) for pid in pids}
    env = Environment(session)
    return SBCStack(
        session=session, env=env, parties=parties, mode=mode,
        sbc=sbc, ubc=ubc, tle=tle, phi=phi, delta=delta,
    )


# ---------------------------------------------------------------------------
# DURS stack
# ---------------------------------------------------------------------------


@dataclass
class DURSStack(_BaseStack):
    durs_or_sbc: Any = None
    phi: int = 0
    delta: int = 0

    def urs_values(self) -> Dict[str, Optional[bytes]]:
        """pid -> the URS each party output (None if not yet)."""
        result = {}
        for pid, party in self.parties.items():
            values = [o[1] for o in party.outputs if o and o[0] == "URS"]
            result[pid] = values[-1] if values else None
        return result

    def run_until_urs(self) -> int:
        """Run until every honest party that *requested* the URS has it."""

        def done(session: Session) -> bool:
            requesters = [
                party
                for pid, party in self.parties.items()
                if not session.is_corrupted(pid) and getattr(party, "waiting", False)
            ]
            return bool(requesters) and all(party.outputs for party in requesters)

        return self.env.run_until(done, max_rounds=self.phi + self.delta + 25)


def build_durs_stack(
    n: int = 4,
    mode: str = "hybrid",
    seed: int = 0,
    phi: int = 3,
    delta: int = 6,
    alpha: int = 2,
    q: int = SBC_DEFAULTS["q"],
    adversary: Optional[Adversary] = None,
    backend: "BackendArg" = None,
    trace: Optional[str] = None,
) -> DURSStack:
    """Build a DURS world.

    Modes:
        * ``ideal``  — dummies over ``F∆,α_DURS``;
        * ``hybrid`` — ΠDURS over the ideal ``F^{Φ,∆−Φ,α}_SBC`` (Thm 3,
          needs ∆ > Φ > 0 and ∆ − Φ ≥ α);
        * ``composed`` — ΠDURS over the full ΠSBC stack of Corollary 1
          (needs Φ > 3 and ∆ − Φ ≥ 3, since the composed SBC has α = 3).
    """
    _modes(mode, ("ideal", "hybrid", "composed"))
    if mode != "ideal" and not (delta > phi > 0 and delta - phi >= alpha):
        raise ValueError("Theorem 3 requires delta > phi > 0 and delta - phi >= alpha")
    session = Session(sid=f"durs-{mode}", seed=seed, adversary=adversary, backend=backend, trace=trace)
    pids = [f"P{i}" for i in range(n)]
    if mode == "ideal":
        durs = DelayedURS(session, delta=delta, alpha=alpha)
        parties = {pid: DummyURSParty(session, pid, durs) for pid in pids}
        service = durs
    elif mode == "composed":
        sbc = _composed_sbc_service(
            session, phi=phi, delta=delta - phi, q=q, tag="durs"
        )
        parties = make_durs_network(session, pids, sbc)
        service = sbc
    else:
        sbc = SimultaneousBroadcast(
            session, phi=phi, delta=delta - phi, alpha=alpha, fid="FSBC:durs"
        )
        parties = make_durs_network(session, pids, sbc)
        service = sbc
    env = Environment(session)
    return DURSStack(
        session=session, env=env, parties=parties, mode=mode,
        durs_or_sbc=service, phi=phi, delta=delta,
    )


def _composed_sbc_service(
    session: Session, phi: int, delta: int, q: int, tag: str,
    msg_len: int = MSG_LEN_SBC,
) -> SBCProtocolAdapter:
    """Assemble the Corollary 1 SBC stack as a service inside ``session``.

    Used by application builders (DURS, voting) whose protocols sit on
    top of SBC: the returned adapter is a drop-in for the ideal
    ``SimultaneousBroadcast``.
    """
    ubc = UnfairBroadcast(session, fid=f"FUBC:sbc:{tag}")
    fixture = build_fbc_fixture(session, q=q, tag=f"fbc:{tag}")
    star = RandomOracle(session, fid=f"F*RO:tle:{tag}")
    tle_wrapper = QueryWrapper(session, star, q=q, fid=f"Wq:tle:{tag}")
    tle_oracle = RandomOracle(
        session, fid=f"FRO:tle:{tag}", digest_size=MSG_LEN_TLE
    )
    tle = TLEProtocolAdapter(
        session, fbc=fixture.fbc, wrapper=tle_wrapper, oracle=tle_oracle,
        msg_len=MSG_LEN_TLE, fid=f"PiTLE:{tag}",
    )
    oracle = RandomOracle(session, fid=f"FRO:sbc:{tag}", digest_size=msg_len)
    return SBCProtocolAdapter(
        session, ubc=ubc, tle=tle, oracle=oracle,
        phi=phi, delta=delta, msg_len=msg_len, fid=f"PiSBC:{tag}",
    )


# ---------------------------------------------------------------------------
# Voting stack
# ---------------------------------------------------------------------------


@dataclass
class VotingStack(_BaseStack):
    election: Optional[Election] = None
    authorities: Dict[str, AuthorityParty] = field(default_factory=dict)
    service: Any = None
    phi: int = 0
    delta: int = 0

    def results(self) -> Dict[str, Any]:
        """pid -> the tally each voter output (None if not yet)."""
        out = {}
        for pid, party in self.parties.items():
            values = [o[1] for o in party.outputs if o and o[0] == "Result"]
            out[pid] = values[-1] if values else None
        return out

    def result_budget(self) -> int:
        """Round budget for :meth:`run_until_result`."""
        return self.phi + self.delta + 30

    def run_until_result(self) -> int:
        return self.env.run_until(self.honest_outputs_done, max_rounds=self.result_budget())


def build_voting_stack(
    voters: int = 3,
    authorities: int = 2,
    candidates: Sequence[str] = ("yes", "no"),
    mode: str = "hybrid",
    seed: int = 0,
    phi: Optional[int] = None,
    delta: Optional[int] = None,
    alpha: int = 2,
    q: int = SBC_DEFAULTS["q"],
    adversary: Optional[Adversary] = None,
    backend: "BackendArg" = None,
    trace: Optional[str] = None,
) -> VotingStack:
    """Build a voting world.

    Modes:
        * ``ideal``  — dummy voters over ``FΦ,∆,α_VS`` (vote values are
          candidate labels);
        * ``hybrid`` — ΠSTVS over the ideal ``FSBC`` + RBC + FPKG + FSKG
          (Theorem 4);
        * ``composed`` — ΠSTVS over the full ΠSBC stack (needs Φ > 3 and
          ∆ > 2, the Corollary 1 minima; ballots are ~1 KiB so the SBC
          frame is widened).

    Φ and ∆ left as ``None`` take the mode's defaults
    (:func:`session_timing`).
    """
    _modes(mode, ("ideal", "hybrid", "composed"))
    phi, delta = session_timing(mode, phi, delta)
    session = Session(sid=f"vote-{mode}", seed=seed, adversary=adversary, backend=backend, trace=trace)
    voter_pids = [f"V{i}" for i in range(voters)]
    election = Election(voters=tuple(voter_pids), candidates=tuple(candidates))
    authority_parties: Dict[str, AuthorityParty] = {}
    if mode == "ideal":
        vs = VotingSystem(
            session, phi=phi, delta=delta, alpha=alpha,
            valid_votes=list(candidates),
        )
        parties = {pid: DummyVoterParty(session, pid, vs) for pid in voter_pids}
        service = vs
    else:
        from repro.functionalities.rbc import RelaxedBroadcast

        if mode == "composed":
            sbc = _composed_sbc_service(
                session, phi=phi, delta=delta, q=q, tag="vote",
                msg_len=4096,
            )
        else:
            sbc = SimultaneousBroadcast(
                session, phi=phi, delta=delta, alpha=alpha, fid="FSBC:vote",
            )
        pkg = VoterKeyGen(session)
        skg = AuthorityKeyGen(session)
        oracle = RandomOracle(session, fid="FRO:vote")
        certs = {
            pid: Certification(session, signer=pid, fid=f"Fcert:vote:{pid}")
            for pid in voter_pids
        }
        authority_pids = [f"A{j}" for j in range(authorities)]
        rbcs = {
            pid: RelaxedBroadcast(session, fid=f"FRBC:vote:{pid}")
            for pid in authority_pids
        }
        parties = {
            pid: VoterParty(
                session, pid, election=election, sbc=sbc, pkg=pkg, skg=skg,
                authority_rbcs=rbcs, certs=certs, oracle=oracle,
            )
            for pid in voter_pids
        }
        authority_parties = {
            pid: AuthorityParty(
                session, pid, election=election, pkg=pkg, skg=skg, rbc=rbcs[pid]
            )
            for pid in authority_pids
        }
        service = sbc
    env = Environment(session)
    return VotingStack(
        session=session, env=env, parties=parties, mode=mode,
        election=election, authorities=authority_parties, service=service,
        phi=phi, delta=delta,
    )
