"""Golden trajectories: per-epoch training records pinned on a small fixed run.

Every scheme token, LL-Cp at batch granularity and a full-label arm are
trained under both adam and sgd on one 300x10, K=6 single-positive corpus
(mlp1 with 16 hidden units, batch 16, 5 epochs, hidden layer frozen for the
first epoch). A refactor that changes any number fails here.

Tolerance: `train_loss`, `val_map` and `threshold_min` match the pinned
values to a relative tolerance of 1e-9 (NaN matches NaN). `flags`,
`flags_true_pos`, `cum_corrections` and `best_epoch` match exactly. The
pinned values must not be edited to make a refactor pass.
"""

import math

import pytest

from wsml.dataset import SyntheticSpec, generate_synthetic, make_single_positive
from wsml.schemes import Scheme, SchemeConfig
from wsml.trainer import TrainConfig, run

REL_TOL = 1e-9
FLOAT_FIELDS = ("train_loss", "val_map", "threshold_min")
EXACT_FIELDS = ("flags", "flags_true_pos", "cum_corrections")

# hyperparameters large enough that every large-loss arm flags something
SCHEME_KW = dict(delta_rel=5.0, r0=1.0, delta_abs=0.1, eps_smooth=0.1)

ARMS = {s.value: (s.value, "epoch", False) for s in Scheme}
ARMS["ll-cp-batch"] = ("ll-cp", "batch", False)
ARMS["full-label"] = ("naive-an", "epoch", True)

# runs train on private copies, so every arm can share these
FULL = generate_synthetic(SyntheticSpec(n=300, dim=10, classes=6, pos_rate=0.3, seed=11))
PARTIAL = make_single_positive(FULL, seed=11)


def trajectory(arm: str, optimizer: str) -> dict:
    token, granularity, full_label = ARMS[arm]
    cfg = TrainConfig(
        scheme=SchemeConfig(Scheme(token), **SCHEME_KW),
        epochs=5,
        batch_size=16,
        optimizer=optimizer,
        learning_rate=0.01 if optimizer == "adam" else 0.5,
        arch="mlp1",
        hidden=16,
        frozen_epochs=1,
        seed=5,
        llcp_granularity=granularity,
    )
    report = run(cfg, FULL if full_label else PARTIAL)
    out = {name: [getattr(r, name) for r in report.records] for name in FLOAT_FIELDS + EXACT_FIELDS}
    out["best_epoch"] = report.best_epoch
    return out


# captured before the scheme table replaced the per-token code paths
GOLDEN = {
    ('full-label', 'adam'): {
        'train_loss': [0.7000903877952905, 0.5963229510493884, 0.5148172574436912, 0.4532562357873925, 0.4046902115744724],
        'val_map': [42.29636307020155, 52.980154841931395, 62.330653196275655, 67.46269149343047, 71.4723505011538],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('full-label', 'sgd'): {
        'train_loss': [0.6863632774463236, 0.5955055556337232, 0.543875606476733, 0.5054014054186848, 0.4716160568113638],
        'val_map': [44.365228862772305, 50.14591604834503, 55.021791476321035, 60.74912920653707, 64.78577378373359],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ignore-unobserved', 'adam'): {
        'train_loss': [0.08532130469369302, 0.045204093750818526, 0.01609633218402635, 0.0057735472330755246, 0.0027104381895246697],
        'val_map': [39.27069700409426, 42.566482710634325, 44.844843716481314, 46.01215266540073, 46.28877116587489],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ignore-unobserved', 'sgd'): {
        'train_loss': [0.09834190611395958, 0.07725456493960917, 0.061143727777703945, 0.049415179676122745, 0.040624537485168394],
        'val_map': [38.19095519554342, 40.58796702150765, 41.9732370502606, 43.42674498587389, 44.397539563563356],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ll-cp', 'adam'): {
        'train_loss': [0.6710171046091089, 0.50464928761986, 0.46467769235230294, 0.4522846158426615, 0.42169340662039606],
        'val_map': [34.726962521384166, 39.158075660766414, 47.47880574663699, 52.86021835392882, 55.085467246531614],
        'threshold_min': [math.nan, 0.6098013640229824, 0.3880846790410714, 0.3758427989847926, 0.4857079207298337],
        'flags': [0, 60, 57, 54, 51],
        'flags_true_pos': [0, 22, 15, 26, 25],
        'cum_corrections': [0, 60, 117, 171, 222],
        'best_epoch': 5,
    },
    ('ll-cp', 'sgd'): {
        'train_loss': [0.6271669658016554, 0.4844110241630097, 0.46273248149326107, 0.4575609259351447, 0.4361735146964715],
        'val_map': [35.78223525199118, 38.402657768130226, 43.28228810498926, 46.18600233812231, 47.741039911045384],
        'threshold_min': [math.nan, 0.5223167694127717, 0.41096220193556393, 0.4118854094621016, 0.4972041549075141],
        'flags': [0, 60, 57, 54, 51],
        'flags_true_pos': [0, 19, 13, 17, 26],
        'cum_corrections': [0, 60, 117, 171, 222],
        'best_epoch': 5,
    },
    ('ll-cp-abs', 'adam'): {
        'train_loss': [0.6710171046091089, 0.5385466879740372, 0.4992220158727958, 0.46349860293934786, 0.4216769521777505],
        'val_map': [34.726962521384166, 40.05279851488585, 44.39554734775431, 48.32715272135683, 50.659260247545504],
        'threshold_min': [0.9, 0.8, 0.7, 0.6, 0.5],
        'flags': [139, 0, 25, 53, 93],
        'flags_true_pos': [34, 0, 10, 14, 39],
        'cum_corrections': [139, 139, 164, 217, 310],
        'best_epoch': 5,
    },
    ('ll-cp-abs', 'sgd'): {
        'train_loss': [0.6271669658016554, 0.5257667860490902, 0.49884622937364975, 0.4776182989281915, 0.45378647275524703],
        'val_map': [35.78223525199118, 39.37088997559641, 43.05142667957729, 46.72597266973841, 48.41258986728234],
        'threshold_min': [0.9, 0.8, 0.7, 0.6, 0.5],
        'flags': [93, 1, 15, 38, 87],
        'flags_true_pos': [24, 1, 9, 11, 30],
        'cum_corrections': [93, 94, 109, 147, 234],
        'best_epoch': 5,
    },
    ('ll-cp-batch', 'adam'): {
        'train_loss': [0.6710171046091089, 0.5058923454073079, 0.454446926493692, 0.41133036898275865, 0.3629825197302587],
        'val_map': [34.726962521384166, 39.8737766400009, 47.73196835937377, 54.32726355238411, 56.780749463571],
        'threshold_min': [math.nan, 0.48317465700089895, 0.4203079049566074, 0.35350477119685764, 0.48480933375146623],
        'flags': [0, 60, 45, 45, 45],
        'flags_true_pos': [0, 20, 17, 23, 16],
        'cum_corrections': [0, 60, 105, 150, 195],
        'best_epoch': 5,
    },
    ('ll-cp-batch', 'sgd'): {
        'train_loss': [0.6271669658016554, 0.4934693491916321, 0.4623611348327885, 0.43150765440763383, 0.39393549114700377],
        'val_map': [35.78223525199118, 40.305366204577034, 44.64443314946558, 48.436971146791095, 50.21137407822847],
        'threshold_min': [math.nan, 0.5050498438819497, 0.49780021581190487, 0.4992647912743845, 0.560916870024865],
        'flags': [0, 60, 45, 45, 45],
        'flags_true_pos': [0, 20, 13, 15, 13],
        'cum_corrections': [0, 60, 105, 150, 195],
        'best_epoch': 5,
    },
    ('ll-ct', 'adam'): {
        'train_loss': [0.6710171046091089, 0.5058923454073079, 0.45824966237725445, 0.4114893624976116, 0.3552873704908448],
        'val_map': [34.726962521384166, 39.8737766400009, 49.34548208325914, 54.86360244225297, 58.15922390905829],
        'threshold_min': [math.nan, 0.48317465700089895, 0.35946469521135055, 0.3414580526165107, 0.3793852409026167],
        'flags': [0, 60, 120, 180, 240],
        'flags_true_pos': [0, 20, 43, 68, 87],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ll-ct', 'sgd'): {
        'train_loss': [0.6271669658016554, 0.4934693491916321, 0.4634648940744134, 0.4165191108888059, 0.3644435608281045],
        'val_map': [35.78223525199118, 40.305366204577034, 45.25382096621285, 48.089822656397125, 49.917252952168525],
        'threshold_min': [math.nan, 0.5050498438819497, 0.42925860101070523, 0.4799328666396638, 0.3930067361816538],
        'flags': [0, 60, 120, 180, 240],
        'flags_true_pos': [0, 20, 35, 49, 68],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ll-ct-abs', 'adam'): {
        'train_loss': [0.533924158989844, 0.39276365403494395, 0.3061015617252457, 0.27062439472717503, 0.24295813877557787],
        'val_map': [36.98923275088539, 42.368491182391935, 46.616818138282774, 49.66896917113559, 52.729198306002914],
        'threshold_min': [0.9, 0.8, 0.7, 0.6, 0.5],
        'flags': [390, 426, 419, 439, 492],
        'flags_true_pos': [84, 91, 90, 101, 123],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ll-ct-abs', 'sgd'): {
        'train_loss': [0.5440677663783662, 0.4127332528860268, 0.3394256357958437, 0.309288994141133, 0.29509786203344623],
        'val_map': [37.37774612933926, 39.90395187723937, 41.5301323759951, 43.447671628809, 45.95105916160236],
        'threshold_min': [0.9, 0.8, 0.7, 0.6, 0.5],
        'flags': [364, 406, 413, 418, 447],
        'flags_true_pos': [80, 82, 85, 86, 97],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ll-r', 'adam'): {
        'train_loss': [0.6710171046091089, 0.4764829073817051, 0.39346464484207677, 0.34378155456630705, 0.29287131412901174],
        'val_map': [34.726962521384166, 39.69049296538791, 48.678900208889615, 55.23362813617084, 58.42813586870809],
        'threshold_min': [math.nan, 0.4784026655809468, 0.3260420943501436, 0.25893984140032245, 0.2795615355131324],
        'flags': [0, 60, 120, 180, 240],
        'flags_true_pos': [0, 19, 41, 80, 107],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ll-r', 'sgd'): {
        'train_loss': [0.6271669658016554, 0.4609223523624329, 0.40602124359834046, 0.36712474940360096, 0.3304383110276399],
        'val_map': [35.78223525199118, 39.41413168056964, 43.02709950091703, 46.85323409383518, 48.76306305550988],
        'threshold_min': [math.nan, 0.4523039877682904, 0.37639239780206113, 0.33010854519368577, 0.30936852504215695],
        'flags': [0, 60, 120, 180, 240],
        'flags_true_pos': [0, 17, 36, 58, 91],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ll-r-abs', 'adam'): {
        'train_loss': [0.5224636081466797, 0.4455706100094846, 0.3900050621107635, 0.3602980527108838, 0.3252638505301952],
        'val_map': [36.48712990304121, 43.273502030183, 50.7494760579667, 56.45087347004524, 60.50121209630708],
        'threshold_min': [0.9, 0.8, 0.7, 0.6, 0.5],
        'flags': [216, 138, 117, 94, 106],
        'flags_true_pos': [56, 48, 49, 50, 66],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('ll-r-abs', 'sgd'): {
        'train_loss': [0.515766798432087, 0.43137170437038785, 0.3886846425437095, 0.3616556608079832, 0.3378485562194743],
        'val_map': [37.937093728056496, 40.74848663798982, 43.62955248629832, 47.14177090239247, 50.393349859749556],
        'threshold_min': [0.9, 0.8, 0.7, 0.6, 0.5],
        'flags': [209, 166, 178, 195, 219],
        'flags_true_pos': [55, 52, 56, 58, 64],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('lsan', 'adam'): {
        'train_loss': [0.6848470550297641, 0.571869536543193, 0.5324492140566985, 0.5155273727260038, 0.5048189969348069],
        'val_map': [35.10098470207501, 40.20764808931943, 50.69098459100996, 58.997348105963, 63.007067459411346],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('lsan', 'sgd'): {
        'train_loss': [0.6657350349783204, 0.5691172877511353, 0.5457849374101734, 0.5346541253886251, 0.5270588393046183],
        'val_map': [36.68219433884359, 38.360270748206645, 41.54195761153778, 43.78129112438345, 46.63425147885942],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('naive-an', 'adam'): {
        'train_loss': [0.6710171046091089, 0.50464928761986, 0.43160533212723123, 0.4020508590828359, 0.37909330348383935],
        'val_map': [34.726962521384166, 39.158075660766414, 48.76190999214041, 55.57492114890042, 60.43450964310134],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('naive-an', 'sgd'): {
        'train_loss': [0.6271669658016554, 0.4844110241630097, 0.44498109797051816, 0.42489077804101744, 0.4101205811843026],
        'val_map': [35.78223525199118, 38.402657768130226, 42.217426851921026, 44.806823019468894, 47.89995457276938],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('wan', 'adam'): {
        'train_loss': [0.24032229079401835, 0.2215378929248627, 0.20057596311306827, 0.1859331048337394, 0.17419521154970544],
        'val_map': [41.3067043781534, 48.49410965582494, 54.82099711328875, 58.773829524032614, 61.05175646202413],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
    ('wan', 'sgd'): {
        'train_loss': [0.24444867033735307, 0.2356468026363568, 0.22744098683339814, 0.22096038401398915, 0.21562533559903782],
        'val_map': [38.48079586272766, 41.40460586641895, 44.44507930711945, 46.24032458121299, 48.510193015998624],
        'threshold_min': [math.nan, math.nan, math.nan, math.nan, math.nan],
        'flags': [0, 0, 0, 0, 0],
        'flags_true_pos': [0, 0, 0, 0, 0],
        'cum_corrections': [0, 0, 0, 0, 0],
        'best_epoch': 5,
    },
}


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_trajectory_matches_golden(arm, optimizer):
    want = GOLDEN[(arm, optimizer)]
    got = trajectory(arm, optimizer)
    for name in FLOAT_FIELDS:
        assert len(got[name]) == len(want[name]), name
        for epoch, (g, w) in enumerate(zip(got[name], want[name]), start=1):
            assert _close(g, w), f"{name} epoch {epoch}: {g!r} != {w!r}"
    for name in EXACT_FIELDS + ("best_epoch",):
        assert got[name] == want[name], name


def test_every_large_loss_arm_flags_something():
    for (arm, _), want in GOLDEN.items():
        if arm.startswith("ll-"):
            assert sum(want["flags"]) > 0, arm
