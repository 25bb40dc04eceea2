"""Production-strength parameters: one pass over the 2048-bit group."""

from repro.crypto.groups import GROUP_2048
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign, schnorr_verify
from repro.crypto.zkp import pok_prove, pok_verify


def test_schnorr_signature_2048(rng):
    kp = schnorr_keygen(rng, group=GROUP_2048)
    sig = schnorr_sign(kp, b"production message", rng)
    assert schnorr_verify(GROUP_2048, kp.public, b"production message", sig)
    assert not schnorr_verify(GROUP_2048, kp.public, b"other", sig)


def test_pok_2048(rng):
    x = GROUP_2048.random_scalar(rng)
    y = GROUP_2048.power_of_g(x)
    proof = pok_prove(GROUP_2048, GROUP_2048.g, y, x, rng)
    assert pok_verify(GROUP_2048, GROUP_2048.g, y, proof)


def test_group_law_2048(rng):
    a = GROUP_2048.random_element(rng)
    assert GROUP_2048.mul(a, GROUP_2048.inv(a)) == 1
    assert GROUP_2048.is_member(a)


def test_share_encryption_round_trip_2048(rng):
    """Encrypted shares are sized from q: a 2047-bit scalar needs 256 bytes."""
    from repro.protocols.voting_protocol import decrypt_share, encrypt_share

    secret = GROUP_2048.random_scalar(rng)
    public = GROUP_2048.power_of_g(secret)
    for share in (0, 1, GROUP_2048.q - 1, GROUP_2048.random_scalar(rng)):
        ephemeral, body = encrypt_share(GROUP_2048, public, share, rng)
        assert len(body) == 256
        assert decrypt_share(GROUP_2048, secret, (ephemeral, body)) == share
