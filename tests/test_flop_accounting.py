"""The FLOP ledger of every plan kind of the default model, and its labels.

Each plan's steps log their own events (see :mod:`cachediff.plan`); these
pin what they add up to, per operator tag and per attention layer, for one
sample of each pass the engine runs, and check that every label of a run's
ledger names a layer of the network.
"""

import re
from collections import Counter

import pytest

from cachediff import runner
from cachediff import unet as un
from cachediff.config import load_config
from cachediff.masks import mask_from_spec
from cachediff.profiler import FlopLog

from conftest import build_conditioning_for, latent_for

FORWARD = {
    "attention_scores": 9122304, "attention_apply": 9122304, "softmax": 2850720,
    "conv2d": 165740544, "matmul": 9039872, "elementwise": 3766816,
}
FORWARD_REMOVAL = {
    "attention_scores": 8859136, "attention_apply": 8859136, "softmax": 2768480,
    "conv2d": 165740544, "matmul": 8744960, "elementwise": 3750368,
}
SUBNET = {
    "attention_scores": 8552448, "attention_apply": 8552448, "softmax": 2672640,
    "conv2d": 16515072, "matmul": 4210688, "elementwise": 1399680,
}
SUBNET_FRAC = {
    "attention_scores": 1677312, "attention_apply": 1677312, "softmax": 524160,
    "conv2d": 16515072, "matmul": 2883584, "elementwise": 969984,
}
# (tags, attention layers) of one sample's pass, by plan kind: a forward pass
# (with removal, with kept probabilities), a subnet of 1 to 3 samples, and a
# two-sample subnet restricted to the mask frac:0.4 (removal leaves U32 alone).
PLANS = {
    "forward": (FORWARD, {"M": 230400, "U2": 3051072, "U32": 23722560}),
    "forward removal": (FORWARD_REMOVAL, {"M": 195200, "U2": 2166336, "U32": 23722560}),
    "forward keep_probs": (FORWARD, {"M": 230400, "U2": 3051072, "U32": 23722560}),
    "subnet 1": (SUBNET, {"U32": 23722560}),
    "subnet 2": (SUBNET, {"U32": 23722560}),
    "subnet 3": (SUBNET, {"U32": 23722560}),
    "subnet 2 frac:0.4": (SUBNET_FRAC, {"U32": 6067008}),
    "subnet 2 frac:0.4 removal": (SUBNET_FRAC, {"U32": 6067008}),
}


@pytest.fixture(scope="module")
def default_model():
    cfg = un.UNetConfig()
    return un.ToyUNet(cfg, un.init_weights(cfg, 0)[0])


def network_layers(cfg: un.UNetConfig) -> set[str]:
    """Every layer of the network: each weight's name without its own last part (w, b, a
    projection's name) or a residual unit's part, and the time MLP as "time"; plus the
    scheduler's update and U32's two fused branches, which hold no weights."""
    layers = {"scheduler", "U32.f", "U32.in"}
    for name, _, _ in un.weight_spec(cfg):
        layers.add(re.sub(r"\.(conv1|conv2|temb|skip|affine)$", "", name.rsplit(".", 1)[0]))
    return layers


@pytest.mark.parametrize("kind", list(PLANS))
def test_each_plan_kind_logs_its_pinned_flops(default_model, kind):
    cfg = default_model.cfg
    cond = build_conditioning_for(cfg, mask=mask_from_spec("frac:0.4", cfg.height, cfg.width))
    z = latent_for(cfg)
    log = FlopLog()
    if kind.startswith("forward"):
        default_model.forward(z, 30, cond, log=log, removal_active="removal" in kind,
                              keep_probs="keep_probs" in kind)
    else:
        tr = default_model.forward(z, 30, cond, keep_bg=True)
        b = int(kind.split()[1])
        default_model.subnet(tr.f_u31, z.repeat(b, axis=0), 30, cond, log=log,
                             dfa=tr.dfa if "frac" in kind else None,
                             removal_active="removal" in kind)
    tags, layers = Counter(), Counter()
    for tag, layer, n in log.events:
        tags[tag] += n
        if layer.endswith((".ref", ".aud", ".tmp")):
            layers[layer.split(".")[0]] += n
    want_tags, want_layers = PLANS[kind]
    assert dict(tags) == want_tags
    assert dict(layers) == want_layers
    assert log.total() == sum(want_tags.values())
    assert {layer for _, layer, _ in log.events} <= network_layers(cfg)


def test_every_ledger_label_is_a_layer_of_the_network():
    rc = load_config(None, ["strategy.variant=lcp_dfa_rm", "schedule.block_size=3"])
    labels = {row[1] for row in runner.execute_run(rc).ledger.rows}
    assert labels == network_layers(rc.unet)
