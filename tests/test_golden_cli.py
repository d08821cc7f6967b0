"""Golden stdout of `linematch certify`, `linematch bench` and
`linematch match --balance --format csv`.

Each case pins the exit code and the sha256 of stdout, so no change to the
exact searches, the certificates, the slot balancing or the CLI can alter a
byte unnoticed.  Float costs and totals are added left to right, never by
the builtin `sum()` (compensated from Python 3.12 on), so the float digests
hold on every Python, as the integer ones do.  CSV output is pinned because
the JSON config block echoes the input path.
"""

import hashlib
import random

import pytest

from linematch.cli import main

GOLDEN = [
    ('certify --k 2', 0, 'a995c174ca391b6f60916ff842fc785d36b1612f30ccfea6d29a8e5b3808644e'),
    ('certify --k 3', 0, '7459e13676a4ee283cae380a4ae8e9301db44e50523e4b50e9d5aa62e1e001cc'),
    ('certify --k 4', 0, 'ab32fa15fbd6bdc4c14ee5909cd93fe5200fdbc78b02a95519ad7647d4ea7558'),
    ('certify --k 5', 0, 'd31674a4bb645e2e1bba7a7faaa369b0934bc6213508ed6c49f052a0a4b0504d'),
    ('certify --k 6', 0, '260cd0adf3b31a63a0c4ec23f1b002c20a9c10a8a019c8e4554b9c7aa36a4603'),
    ('certify --k 7', 0, '535be4a0701a3097d0dc1f435f36e8d5ade2c6a633e903fc57b13486a5710905'),
    ('certify --k 8', 0, '449c842c3ad98f0714f42ab0f32b085519a0fa332aa124a08081458bb8f255f0'),
    ('certify --k 9', 0, '4ed6b63062f4f0be58138d9b58cf1a576feb8d87826fdb09cfd3189c44170d92'),
    ('certify --k 10', 0, '7937ce51113cda018e7f4e9608c74baeccca834bd404343df0800b85bdb66385'),
    ('certify --k 2 --weight sq', 0, '876ce0cc7187f74a77297f1dadc3b00c4979d2827ea2004612209d3caef5f080'),
    ('certify --k 3 --weight sq', 0, 'c2bf8cce74c0389862fa93caf5eafc1a0382452a92f995a143d71c4b6d399f08'),
    ('certify --k 4 --weight sq', 0, '9075f39e1d2e7af31495759db7d452a833928085fcc95d1c4e907f1b10cf2672'),
    ('certify --k 5 --weight sq', 0, '330e5fa9d6b663d5d138cd783c91813081f4d73bee265a3949a0ce8dac32831e'),
    ('certify --k 6 --weight sq', 0, '2778ab567445fddc454dc9bfa885b5ba38fd696d940fe846a052d58777a69fbe'),
    ('certify --k 7 --weight sq', 0, '5cc19945ec4653d0e7272c1dc822656b4348af46227767d93b260b64497ca987'),
    ('certify --k 8 --weight sq', 0, 'edde7546b3a34844ae610fbfe801923fd81be737ecf4b081c2b978e09cc04047'),
    ('certify --k 9 --weight sq', 0, '744812672879b2c7ea95d36854eb9def8c0b6b3c53f230c641ea10f372f3790d'),
    ('certify --full-range --weight sq', 0, 'c83261f28ff0c573cb5c08ac6d370e1d64628049a4e772943283f10b6a32d1d3'),
    ('bench --dist uniform-int --k 2 --weight abs --seed 0 --line-sizes 3,5 --tri-sizes 2,4 --instances 2', 0, 'cadbb57a885dc38c5709778b0433b8b8a7fd393fd6d573c16496a9ba05145437'),
    ('bench --dist uniform-int --k 2 --weight abs --seed 1 --line-sizes 3,5 --tri-sizes 2,4 --instances 2', 0, 'd1c990c20b81dea9b95975fb357e38b65fd55ce2c5d6d59a0dd2133dc29bf9d5'),
    ('bench --dist uniform-int --k 2 --weight sq --seed 0 --line-sizes 3,5 --tri-sizes 2,4 --instances 2', 0, 'b74d6c6d0e3079e6a414089925c8a1beecd6709ece6be0b874f64f21dcb1a66f'),
    ('bench --dist uniform-int --k 2 --weight sq --seed 1 --line-sizes 3,5 --tri-sizes 2,4 --instances 2', 0, 'e81b93775d1fbe000e8e5f6ad438962708af3063fcb96d0fa448610cd39d28d7'),
    ('bench --dist uniform-int --k 3 --weight abs --seed 0 --line-sizes 2,4 --tri-sizes 2,4 --instances 2', 0, '95feff40ff6746a52d0a015214a22632bcd2bc36f6446972385eabc8ec8ab213'),
    ('bench --dist uniform-int --k 3 --weight abs --seed 1 --line-sizes 2,4 --tri-sizes 2,4 --instances 2', 0, '7016ea9dcc13cc7fbc9eb8adebf9fb39fb7f3ac011e72606125f7dc8bd6743d0'),
    ('bench --dist uniform-int --k 3 --weight sq --seed 0 --line-sizes 2,4 --tri-sizes 2,4 --instances 2', 0, 'b0b9daa1a8ba68bfd1009a62bf29a3684d334ba21fd82bdc78419ac128930128'),
    ('bench --dist uniform-int --k 3 --weight sq --seed 1 --line-sizes 2,4 --tri-sizes 2,4 --instances 2', 0, '02694b2746fa70a37b2fcbce15acbf945ddaaf79d59761894bcbd8a3538e6127'),
    ('bench --dist uniform-int --k 4 --weight abs --seed 0 --line-sizes 2,3 --tri-sizes 2,4 --instances 2', 0, 'c5d83c97777e877a92f68a54a420e31e8dbad5f9fe1c5973959351010bd42837'),
    ('bench --dist uniform-int --k 4 --weight abs --seed 1 --line-sizes 2,3 --tri-sizes 2,4 --instances 2', 0, 'f767de8cb290be2867e56d7750639ec049e4215be5f760fdb9338e29eaa69b1c'),
    ('bench --dist uniform-int --k 4 --weight sq --seed 0 --line-sizes 2,3 --tri-sizes 2,4 --instances 2', 0, 'a25553eed48204beefa80d642a8da7630d266dec011172cd02815950cebfe292'),
    ('bench --dist uniform-int --k 4 --weight sq --seed 1 --line-sizes 2,3 --tri-sizes 2,4 --instances 2', 0, '7540ccf62ec84c9fa42439d15016827914bdf345d7f8b5e07b39665443b53e85'),
    ('bench --dist uniform-int --k 3 --weight sq --seed 1 --line-sizes 2,4 --tri-sizes 2,4 --instances 2 --format csv', 0, '1e824d30e173eaf1ba7f20308c8a721e5879a2dcb5c6f1a06bb53bc634a3db33'),
    # the oracle_bench shape on integers 0..100: greedy over 48 scores with
    # heavy ties (many windows at the least cost) and local search over 16
    # groups
    ('bench --dist uniform-int --k 3 --line-sizes 4,16 --tri-sizes 5 --instances 6 --budget 1000000000000 --seed 0', 0, 'fe215e6313735db9e7caebd9ae780c81a2a6e41a036863b86b0d7128ed1ffdd3'),
    ('bench --dist uniform-int --k 3 --weight sq --line-sizes 4,16 --tri-sizes 5 --instances 6 --budget 1000000000000 --seed 0', 0, 'c57bfac5dc9299ca6f2268c558f61ace0f399b3664eebc4ffa2b7b4da8d31c63'),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_matches_golden(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


# bench on six-decimal U(0, 100) floats: the greedy baseline, the exact
# oracle, local search and (k=3 abs) the hierarchy, costed in floats.  The
# first two are the oracle_bench benchmark op; the line sizes 64 (k=2) and
# 8 (k=4) give greedy 128 and 32 scores.  At k=5 local search re-splits
# group pairs at C(9, 4) = 126 splits each (n=4: six pairs).
FLOAT_BENCH = [
    ('bench --dist uniform-real --k 3 --line-sizes 4,16 --tri-sizes 5 --instances 6 --budget 1000000000000 --seed 0', 0, '137483de37797293fcc9988226b5abbae67be33539787098175d1c6a17cc6a08'),
    ('bench --dist uniform-real --k 3 --line-sizes 4,16 --tri-sizes 5 --instances 6 --budget 1000000000000 --seed 1', 0, '606fc5468f1cc25020a244e5d835bb8fc7b2d698a8485af383141674c2d082e4'),
    ('bench --dist uniform-real --k 2 --weight abs --seed 0 --line-sizes 3,5,64 --tri-sizes 2,4 --instances 2', 0, '56db69df0bd8e49469ea8108941102f3533eb3888475d267ee8b639c3a75cb4f'),
    ('bench --dist uniform-real --k 2 --weight sq --seed 0 --line-sizes 3,5,64 --tri-sizes 2,4 --instances 2', 0, '070d18cddc0473f1e4836e0c72d59f0a0dfbbb7c05ea1ab1b5e15e9d48eb794e'),
    ('bench --dist uniform-real --k 3 --weight sq --seed 0 --line-sizes 2,4,16 --tri-sizes 2,4 --instances 2', 0, '4ac7dc7b53d8effc8c7a909463963a611125a3a543ef4c7287ddd0f8a176a8f9'),
    ('bench --dist uniform-real --k 4 --weight abs --seed 0 --line-sizes 2,3,8 --tri-sizes 2,4 --instances 2', 0, '904f75a03234bc17ebb0013a51c7e3ed2754efcb9417bda2979e5f2a9b561fe6'),
    ('bench --dist uniform-real --k 4 --weight sq --seed 0 --line-sizes 2,3,8 --tri-sizes 2,4 --instances 2', 0, 'e162bad76579886ad11a33ad41dce0d1c68993efc864b4444f1d1351a4acf4ec'),
    ('bench --dist uniform-real --k 5 --weight abs --seed 0 --line-sizes 2,3,4 --tri-sizes 2,4 --instances 2', 0, 'a76e0acb8b8f6eb770f5e31c2a4ce2065758d611dab99fe5ba2272da63f10a16'),
    ('bench --dist uniform-real --k 5 --weight sq --seed 0 --line-sizes 2,3,4 --tri-sizes 2,4 --instances 2', 0, '9a3a80ff6bb8083de51f47745662da40c81a0cbbd6735312f016230b025e4061'),
]


@pytest.mark.parametrize("argv,code,digest", FLOAT_BENCH,
                         ids=[g[0] for g in FLOAT_BENCH])
def test_float_bench_matches_golden(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest

# Cohort families for the balanced match goldens, drawn from random.Random(k):
# full-precision U(0,1) floats, one-decimal ages 18.0..22.0 (many ties and
# constant groups), integers 0..99, and tenths on a 1e12 offset.
COHORTS = {
    "uniform": lambda rng: rng.random(),
    "ages": lambda rng: rng.randint(180, 220) / 10,
    "ints": lambda rng: rng.randint(0, 99),
    "offset": lambda rng: 1e12 + rng.randint(0, 30) / 10,
}

# (family, k, weight) -> sha256 of stdout; 10 groups per cohort
BALANCED = {
    ('uniform', 2, 'abs'): 'dc7c8bfd57aa7ac0798cfc36ef90f9c1c1677c001ad942d8181592707f3b5396',
    ('uniform', 3, 'abs'): 'f7809db8961d1a852b59b957a5c16739208db0a45f4cf63246d92e99eb4f5dad',
    ('uniform', 4, 'abs'): 'd02a23016a5725dc24eb100fac96513ac8c50ccd670589af16953061f46b81ea',
    ('uniform', 5, 'abs'): '87abf37a4969890f7b7dd8204c3019b461880ab35ea3037a50301925da2d3604',
    ('uniform', 6, 'abs'): 'bbd1db39ea469295541dddda21a044c423593a833bb33159d776cffcbe1e6053',
    ('uniform', 2, 'sq'): '04e1a2f066c5a63168423a5577cb9165a9fd81265922ac6d3931abf3d7826301',
    ('uniform', 3, 'sq'): '114ce51e751d19d250f9af556cd282b440ca4506e23723d31359a0cd51e4e8f7',
    ('uniform', 4, 'sq'): 'bfd0c00b933e90445ce0b93292b4bf8c2f6cfad51a87ded70eb547d84597c0d2',
    ('uniform', 5, 'sq'): 'c0c19477b34b00fd5dec7e112206bbbe076895d0330c018f7abd410ec189ec43',
    ('uniform', 6, 'sq'): '99aad2bba7eb886c753489357387d61ec71ce5a71da4f0a0c86e023a379d6655',
    ('uniform', 7, 'sq'): '86b774458ec8014801dc69534314df128c7a6e43f75f12bae16a14dcba2da3af',
    ('uniform', 8, 'sq'): 'c08298ce60a56a1541988ffbfed3ce65aa3806338a7dd50f5ea2a60d31093525',
    ('ages', 2, 'abs'): 'c88a51f7caa945c59c700746733ea6b75a7f927958fb224c638e3276bc90dd1f',
    ('ages', 3, 'abs'): '4dc5226934421eae97ebff332810904b1dfb8157693486a93312fc977f286c24',
    ('ages', 4, 'abs'): 'dbae32d1d2270364f8ba76d2d561987140c60e38d700487be86721277d2809b3',
    ('ages', 5, 'abs'): '73eed9e1aff56400e76999a21fec8cd0c7bff41858e0c300cb705f4ecaba7f64',
    ('ages', 6, 'abs'): '457d284ebf06e92851b5ed3c7122419fb39868e024c4548d16a607aa3c8ae4af',
    ('ages', 2, 'sq'): '0c8bf02cce15572f9bd90c1fe94f701f96dcff1fc49827401deed5c6333307a5',
    ('ages', 3, 'sq'): '68b9e860ee98dc96e29fada5fe8cd04042042a381e58515f93bcb57a910b929b',
    ('ages', 4, 'sq'): '412b40979cf70f7c3e64b5a735aae336f78f849693b64f4cf6d63554c69c356b',
    ('ages', 5, 'sq'): 'b508225e3b042bf282062a82aab6b0fb9bab4bd9fae3cc9f426b3d056ba0a3a8',
    ('ages', 6, 'sq'): '4e2397a8412c5bf5fc6213615f3361ffabe21ff1c57d52f14345fa26d4ac7c0d',
    ('ages', 7, 'sq'): 'e6d250810fe79a3ccf6647ae9c4baf82c61a2224d132b3c6db7251e9c2d0b60a',
    ('ages', 8, 'sq'): '2245339a8866ccd8f04544b565cbb71ddc3bad424793d80367c5278923f4c1be',
    ('ints', 2, 'abs'): '3e791d5a27ebd7b150d34efd819672e45c02841a2242d8d6ddb42c6c7ee819ea',
    ('ints', 3, 'abs'): '1cd98ea08d405ca7e1833735ee18574d9b7176ac01e27aaa3ac4766212be81d5',
    ('ints', 4, 'abs'): '787c1fe45b692549e1f2410ef4ca81f27ed62ff4a27d0c4359a95580780836d7',
    ('ints', 5, 'abs'): '88212de846bd379ee15efacc40ef099744127901dd63cab977fbb8c4421b81a1',
    ('ints', 6, 'abs'): '5356bbcf1335400f2aeeda0658f1a8510f359ed991cb20f43318f29ed7c04865',
    ('ints', 2, 'sq'): '0316b47acbdfbd0d27bfaada1a3fae0cc4943fa7de35f40d73d306b44d408532',
    ('ints', 3, 'sq'): 'c6d83c5c9756e9982e6d753fd89c4accf3cc0b502bd3cefb50f173c3aa40ef3d',
    ('ints', 4, 'sq'): '3513b8fd89ef9a5cdc1aceafa32b865ce0037bb7b8469c1d529360b3ac669c72',
    ('ints', 5, 'sq'): '965eee5633e81d36990b127da7991735eebfddba20907f6f2f7b79598da5a4c9',
    ('ints', 6, 'sq'): '49a01af22b8f13e2ee2ba625c794ee1d44389b6fc77753497cb9605f1e7d3620',
    ('ints', 7, 'sq'): '675ed311318dc1c1bf24d2f754cf404f0494afbbc6c35c58c7335b570f102140',
    ('ints', 8, 'sq'): 'f6affcf7f12edf8b4c733071e1fc5339faceebf1edce4727227d769b23c7a12e',
    ('offset', 2, 'abs'): '4a32cdf51b5894c5256b14b9038146c621451c4ecc613a1ee6176bcf41dadf71',
    ('offset', 3, 'abs'): '6cf84f58eb11dc1407a20525187702f8fdf21ee99355667c2a4b3fe79e57c077',
    ('offset', 4, 'abs'): 'a3a4cdc57433fef17d4e97f7d09032087d52f6151e09dfe59c64dc13d44565ff',
    ('offset', 5, 'abs'): 'e93b6fcde6e3b98535671da47e8567d55fc3b850ecc588a22c530ea0f9d1a070',
    ('offset', 6, 'abs'): '18ec3272b8764b56ea7d43f628cf7e7c45f544b60ab729b052790baff8f3f58c',
    ('offset', 2, 'sq'): 'cce4f99721fbb396dbd62f94fd97b41cb25f1f5f497ee7abc70853f201273028',
    ('offset', 3, 'sq'): 'f266fde0bbed6656d2354e4a7fb51802632b30d9a52d3693f1a9ee6ab9448498',
    ('offset', 4, 'sq'): '0c9e03f658ecc701172c5dd4cc0617f7c15f9c0b7b7c7e9c1fa48bb59c0e8d0d',
    ('offset', 5, 'sq'): '4af14733a0c7696eb7ea9a5a17d87d47764963b0657f1388227eeb76f9e9f304',
    ('offset', 6, 'sq'): '0e3a7f0343e51a3f12458f92bd00d0b35b12d01c5085a0498da46b4ddc42059d',
    ('offset', 7, 'sq'): '38df492945f8b2880d3d33a82ac2eabcab9b3f35c3b7fab99d3269409f6b653b',
    ('offset', 8, 'sq'): '4d939488976001839ed7c08ffea8d9c744d85f075dd930983354a46075206e63',
}


def write_cohort(path, family, k):
    rng = random.Random(k)
    draw = COHORTS[family]
    rows = [f"s{i},{draw(rng)}" for i in range(10 * k)]
    path.write_text("id,score\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("family,k,weight,digest",
                         [pytest.param(*case, digest, id=f"{case[0]}-k{case[1]}-{case[2]}")
                          for case, digest in BALANCED.items()])
def test_balanced_match_csv_matches_golden(tmp_path, capsys, family, k,
                                           weight, digest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, family, k)
    argv = ["match", "--input", str(path), "--k", str(k), "--weight", weight,
            "--balance", "--format", "csv"]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest
