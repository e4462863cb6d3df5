"""Golden forests: fixed-seed importance fits must keep producing the same
trees, weights and probabilities, bit for bit.

Each case fits one forest and hashes every tree's ``leaf_boxes``,
``leaf_means`` and ``split_dims`` into one sha256 digest, and the
``main_effect_fractions`` and ``weights_to_probabilities`` floats into a
second one.  The digests were recorded with the recursive tree grower that
the level-wise one replaced; any change to a split choice, a threshold, a
summation order or the leaf order shows up as a mismatch.

The shapes are those the paper's settings fit: the 10-D rastrigin space and
the 12-D conv surrogate at 110 trials (acceptance test c05), the 3-D
additive-anova surface at 500 trials (c04), and a small mixed space with a
categorical axis, duplicated rows and a failed trial.  The rastrigin and
additive-anova scores go through the platform's libm.

To print fresh digests after an intended change of forests:

    PYTHONPATH=src:tests python tests/test_forest_golden.py
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from wrsopt.importance import ForestConfig, fit_forest, main_effect_fractions, weights_to_probabilities
from wrsopt.objectives import make_objective
from wrsopt.triallog import TrialRecord

from _util import conv_space, mixed_space, real_space

# acceptance test c05's reference weights, the conv surrogate's coefficients
REFERENCE_WEIGHTS = (7.4, 11.85, 0.51, 0.79, 1.62, 0.73, 2.26, 1.26, 26.28, 0.87, 3.22, 1.75)


def _record(i, values, score, status="evaluated"):
    return TrialRecord(iteration=i, values=values, score=score, phase="rs", status=status, wall_time=0.0)


def _sampled(space, objective_text, n, seed):
    objective = make_objective(objective_text, space)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(1, n + 1):
        values = space.sample(rng)
        out.append(_record(i, values, objective(values)))
    return space, out


def _rastrigin():
    return _sampled(real_space(10), "builtin:rastrigin", 110, seed=11)


def _conv():
    coeffs = ",".join(repr(math.sqrt(w)) for w in REFERENCE_WEIGHTS)
    return _sampled(conv_space(), f"builtin:additive-anova?coeffs={coeffs}&direction=maximize", 110, seed=12)


def _anova():
    coeffs = f"{math.sqrt(7)!r},{math.sqrt(2)!r},1"
    return _sampled(real_space(3, low=0.0, high=1.0), f"builtin:additive-anova?coeffs={coeffs}&direction=maximize", 500, seed=13)


def _mixed():
    # 60 sampled trials, 20 of them repeated with the same score, 10 more
    # repeated with a shifted one, and one failed trial the fit must drop
    space = mixed_space()
    rng = np.random.default_rng(14)
    acts = {"relu": 0.0, "tanh": 1.0, "gelu": -0.5}
    base = []
    for _ in range(60):
        lr, layers, act = space.sample(rng)
        base.append(((lr, layers, act), 3.0 * lr - 0.2 * (layers - 4) ** 2 + acts[act]))
    rows = base + base[:20] + [(v, s + 0.75) for v, s in base[20:30]]
    trials = [_record(i, v, s) for i, (v, s) in enumerate(rows, start=1)]
    trials.append(_record(len(trials) + 1, base[0][0], float("-inf"), status="failed"))
    return space, trials


SHAPES = {"rastrigin": _rastrigin, "conv": _conv, "anova": _anova, "mixed": _mixed}

CONFIGS = {
    "default": ForestConfig(),
    "leaf1": ForestConfig(min_leaf=1),
    "leaf5": ForestConfig(min_leaf=5),
    "depth1": ForestConfig(max_depth=1),
    "depth4": ForestConfig(max_depth=4),
    "nobootstrap": ForestConfig(bootstrap=False),
    "onetree": ForestConfig(n_trees=1),
}

GOLDEN = {
    'rastrigin-default': ('b65d6005f158684148543b46df6185c53bef755e546f66cfbd0efbe9d3c8179e', '00067cb68527c23c3babb7642ab123ada789b79c731852420c94127a941503e4'),
    'rastrigin-leaf1': ('340e11deb5044fd20b84efe686008fcea944d2b6462801111d782bcf3e15bc31', '4607125ad7bb4d396426ccfbc7dffed889e6c1a1c967dd23cbd43a459487057b'),
    'rastrigin-leaf5': ('857570765deb203a6e3293f15ae5741341c0c920b80bb15ab8ac5df370d79b8e', 'ef8409022ad9fe21639f5c51e9b59b1c9c6916842d72e6d402405f2037fbb013'),
    'rastrigin-depth1': ('4b11d8b360d574bf48c03e9ffca0c549f94c828bfb92b456c80edb5850ebf02e', '79381fb00a64de47bc23fbcb650ca930a40494bd1af01beb524ccbe8c41a0efa'),
    'rastrigin-depth4': ('eb6ece6d9ae6d1c7b913c44b2bf859a1c69c12ed52063a4ae77ed168d866f20a', '5acf76e806ca57e15b0129d6f9eface4cc3a8af898a70ef18f44cbd6c5e45e2d'),
    'rastrigin-nobootstrap': ('1240636ad67eca694851b1f38ac1712958c8cc59145aa8a61219bc5be3fa68e9', '30a20adcd70aef62d40e6104a3ce9402d785d68df91f084b15e29ad59747dcd4'),
    'rastrigin-onetree': ('24ea082d4c75ad651abf50397e18f73f5dfa3bf08619308fcdecd339526c13b2', '1e921bb890243b2110df347f03557a0e15df87762f62962cdcbbcce7ffca3408'),
    'conv-default': ('bcd815f7e04fd9044b0844e1befb7361a49fa30a535670d5ba0031a40a136291', '2e7f393ef697a6ad2ada7d346bc69f27463ce0d7a0efaf253b2f0fe4cfea5af7'),
    'conv-leaf1': ('c864d6bd51698b1b357438d3538b5713761ae3c6dadaa4b7a7cb91f4abad299f', '7b199e98d634e8a1d10550721f200647365374d870dfda12e938055bf76f49ba'),
    'conv-leaf5': ('3154cb341ad758ceb01029268021a174a506b7d4b0d20c3d82d0faa729c3cd29', '6a272857712a329637dda9da1a3129b6d9fc8f133a50297f6d8b04d19f12dc02'),
    'conv-depth1': ('547adad277c20c72002cce91097eb10c5e7d668c3fc4a43db5214e880100bcfa', '948b25da3efd73978734dba47f58ecfaa0d06ad5019ee984c7035ac90a982fe2'),
    'conv-depth4': ('3db1433dd1b1668783c6d41827f347328a0d0464d5bd99c170fd28e8d2b030fc', '32bc61241ccd09a6e4c360961a44e15434d960149775c3cc88fadec81980aa5a'),
    'conv-nobootstrap': ('4dc6925b316a53b96eccd76ed5a1ad7cc391ea082b8c07819d491c340bc6463d', 'af712c7ccbe3c6897c2dc4bef02a6353cf441acfa4059d489509690dca48ac13'),
    'conv-onetree': ('93a25c1b5fc94292bcc5ae4f3a6ed3ed026f7ed7b436af3f09a035b57808ee10', 'aaabe590b11248209c506e90b696fdb71d7aac3b8ca3510cbbb09b92725c5eee'),
    'anova-default': ('7809466718571f69ecb4b2c116cf5872a6850cc933d2877ea50cc7c81f98da3d', 'c10d9acfdcdb19c13f56b3a21b9085b88aa2d45a3322b4fc09551f44784adac7'),
    'anova-leaf1': ('f037c9ff8f07788d68f1e504331fbebbe71d92b574d0eef7e9d4d299642cda3a', 'a1eb6f6f3a7b1ffd5b3281a2cc8a92c5fad8a87dc5d36c7ac46374a6551f59ab'),
    'anova-leaf5': ('a1b414bf38878f16d7d9fd23477274f5d2aa8744741aa772846b83ea76662ccf', '61e96b14ed8015e9eb67c68201910548469c7022ec6a78700950a6b4ba3cc8d5'),
    'anova-depth1': ('df600cd6f4d64bef34492eb1a59bc9c3df27dddcbfa54b9210cb76796ed97f87', '776e46cc0b171aac8656d5a788a2436f714cd786f05c1f692f2f37a42c4df7d5'),
    'anova-depth4': ('c5c395761170a7e67d772d2a24db18822ea56c374bfe882982ef2dfc4977aa89', '14f01d0825f8a1e028dbaf310f919a324dab61610654a833e4816d55476880ce'),
    'anova-nobootstrap': ('41ee88b90e739ae3a3abe5390518f5a0f03d7e7f9968ef42e2726ed914cfaa10', '518eef2e1e728929e7b6f833b1605bf3e1a12e872c8ec7cf65812e07f71d870a'),
    'anova-onetree': ('4430c0d2a9ae98218860e952bb5351eb8110052b50a1e730514c8f2d6c1fa3eb', '644d987f4fee2517ae934e9741afba9defae9762589229b213333afee19f5709'),
    'mixed-default': ('6bc9a3250e8d29d4bf81dea4c63d26d126bcebf6a151a0d16b988525b89c7a9d', '91a1588f4a5f320d4bc4c056a8cb422ad03b59f9160dd892da2992a63293d6dd'),
    'mixed-leaf1': ('45bd3baa29daf1cfdcaca4ac6b00669ef352fb6ae66a88ec40cb2e9a23301bdb', '2b44ae5abb064ac1526ca91009bd200df6a4a5a60ebc9d9e09e341e75c58adfd'),
    'mixed-leaf5': ('ebff6a11b314f6d3cf3763a8a11826c4d1d67617663f0581bc6e557477b0e64b', '663863e991de50b2f62511a1c3f0ce31b385e025af102e8c28d5d82ed1ed9dff'),
    'mixed-depth1': ('cdd9803cdbd83e8c142bc7628fd210e62030f3cb74a4b7df74e94588e5262b01', '8d44713f34be1f445ec9c78374fa1a63d7c3c8298edc007e45081412621ed349'),
    'mixed-depth4': ('9183945ad621b26d6c215e2cf56d1b78584860979d6a725ba940d069e500d338', '144a7642c7188c5a409a66ad32badc8d754c03ad09f94000366baa9bb900ecab'),
    'mixed-nobootstrap': ('f7b6647f3f98ac90310fd1d1eb090bb5321bf635655d4515f92c096fdf603009', '86177990746f57c44b13cd6b121e8fe94a88e9b71d2c93791f00deb3f9b1a260'),
    'mixed-onetree': ('d166b2e03dd95c20020a09d024233c3647314fa583670cf65fb7d032610f95e8', '02354eb52d5306c2794c4eda556e542ee960f0b0e88ff6559f74ad7047268c7c'),
}


def forest_digests(shape: str, config: str) -> tuple[str, str]:
    """(trees digest, weights digest) of one golden case."""
    space, trials = SHAPES[shape]()
    seed = 100 * list(SHAPES).index(shape) + list(CONFIGS).index(config)
    forest = fit_forest(trials, space, CONFIGS[config], np.random.default_rng(seed))
    trees = hashlib.sha256()
    for tree in forest.trees:
        for arr in (tree.leaf_boxes, tree.leaf_means):
            trees.update(repr((arr.dtype.str, arr.shape)).encode())
            trees.update(np.ascontiguousarray(arr).tobytes())
        trees.update(repr(tree.split_dims).encode())
    fractions = main_effect_fractions(forest, space)
    probs = weights_to_probabilities(fractions)
    weights = hashlib.sha256(np.array(fractions + probs, dtype=np.float64).tobytes())
    return trees.hexdigest(), weights.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_forest_matches_golden_digest(case):
    shape, config = case.split("-")
    assert forest_digests(shape, config) == GOLDEN[case]


def test_every_shape_and_config_has_a_golden_case():
    assert sorted(GOLDEN) == sorted(f"{s}-{c}" for s in SHAPES for c in CONFIGS)


if __name__ == "__main__":
    for s in SHAPES:
        for c in CONFIGS:
            print(f"    {f'{s}-{c}'!r}: {forest_digests(s, c)!r},")
