"""The structure dumps, byte for byte: SHA-256 digests of
`HopfBimodule.to_json()`, `typeone.structure_json` at degree 2 and
`HopfQuiver.to_dot()` for every type of three ramifications, one with a
2-dimensional slot.  The digests were taken from the build that still
keyed arrows and paths by `ArrowId`, so they pin the arrow order, the path
basis order and the order of product terms across that change.
"""

import hashlib
import json

import pytest

from quiverhopf import (
    build_bimodule,
    enumerate_types,
    parse_group,
    parse_ramification,
    rsr_from_type,
    tensor_hopf,
)
from quiverhopf.typeone import structure_json

DIGESTS = {
    "S3 (0 1):1 0": (
        "1bc7c9a4a1102ebb7f1f909ea5ab1b477937d67fc165196082bcf9640d1d56d7",
        "70b9124037575d73604cce1729778e103c506a4a1eb040af54789973563c26ed",
        "90996a00693d9eb0dd5769f8da2b4fb1fafd7fe8a7287af829c58bd6b8effc35"),
    "S3 (0 1):1 1": (
        "6b1bc871c470677321aba377fb56e1be01c6100a32357bb56b4f99ad811cc234",
        "e73f2ad79da52c205d187a46a9d3f32d8ef48d17d022d7be148694ad649456ac",
        "90996a00693d9eb0dd5769f8da2b4fb1fafd7fe8a7287af829c58bd6b8effc35"),
    "S3 e:2 0": (
        "ecd7a77d46416de77c2653ea26c1e89e7b151e44da3c9c7ef90c4dd915e3f308",
        "54c775b948f12efc25e6a8d9fa4ef6ca0e156e214c43731307ff4dd2f43bd1d4",
        "0f8f9ef074b35d78015f6d8dfeff7065997aca002b76525d9c0b0418407f4658"),
    "S3 e:2 1": (
        "23d27ed9046c3099b0fd88e6277c56dd2cf9c6f86bafcfeb71a1d53ed944b1c1",
        "8f8cf2b2d9edcb0207acd115783999c0c88858e7481cc5007781a06379e46945",
        "0f8f9ef074b35d78015f6d8dfeff7065997aca002b76525d9c0b0418407f4658"),
    "S3 e:2 2": (
        "da3e09c2fb2007cf57c2ee0741f166415a00526429795cc400fa97d6f95fa5ab",
        "18c4513010b65a75ed6c8dcc32a9ea85114f6cae6daebbe5eeef0f5a226c1a45",
        "0f8f9ef074b35d78015f6d8dfeff7065997aca002b76525d9c0b0418407f4658"),
    "S3 e:2 3": (
        "98de60b1aca56098dd574d9f6a5504f2e21c6858899fb3550abe583c10047eca",
        "56495d120fc41667518508ff7ba9ea021240ef7bac311b99780884757343a055",
        "0325c0f8a68168c5c65a37bef18d3ab63423224afbd6224d5b9de9cd81acd17d"),
    "D4 (0 1)(2 3):1 0": (
        "9643d7a47d7a406ae94fee07978437cb2a76ce74da84e2ad082ccfc9fe6b2a97",
        "a5eecebe4844997aa5a5738482708c88db3106890e375485900e7fdfd4930514",
        "42b04e1f8a0864040828461b7830151a2e0b3287b94d632d229e1b394cb01367"),
    "D4 (0 1)(2 3):1 1": (
        "093059074f72a4b13ff6c0bc74dfe6f3b43a272fda90506b1b3a0f259e162aee",
        "ec836b53787a22b54d48d74aa437c9187d3408a1f3703e1e6ed3b596b2bbbbf7",
        "42b04e1f8a0864040828461b7830151a2e0b3287b94d632d229e1b394cb01367"),
    "D4 (0 1)(2 3):1 2": (
        "dba4a17ce882ef77fd47cad7986bfd41cad6e247c507ae729e3c8a14d769a410",
        "d9998c54ac6d0526c477074e216dfab9ab13626fe2ead38854feca4a24ecd0a8",
        "42b04e1f8a0864040828461b7830151a2e0b3287b94d632d229e1b394cb01367"),
    "D4 (0 1)(2 3):1 3": (
        "6af4d7b6ac78cb1f367a337eab03d04233f6b5dff457b8ff41dfa4182d950ae3",
        "a5c7311c8708d59e98a641fd3173f6340efb13ad71b97d2dbb424b93748b11bd",
        "42b04e1f8a0864040828461b7830151a2e0b3287b94d632d229e1b394cb01367"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec, ram", [("S3", "(0 1):1"), ("S3", "e:2"),
                                       ("D4", "(0 1)(2 3):1")])
def test_dumps_match_pinned_digests(spec, ram):
    g = parse_group(spec)
    r = parse_ramification(g, ram)
    types = enumerate_types(g, r)
    assert len(types) == sum(k.startswith(f"{spec} {ram} ") for k in DIGESTS)
    for i, t in enumerate(types):
        rsr = rsr_from_type(g, r, t)
        assert (sha256(json.dumps(build_bimodule(rsr).to_json(), sort_keys=True)),
                sha256(json.dumps(structure_json(tensor_hopf(rsr, 2)), sort_keys=True)),
                sha256(rsr.quiver().to_dot())) == DIGESTS[f"{spec} {ram} {i}"]
