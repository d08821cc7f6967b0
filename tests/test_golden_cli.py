"""Golden stdout of `linematch certify` and `linematch bench`.

Each case pins the exit code and the sha256 of stdout, so no change to the
exact searches, the certificates or the CLI can alter a byte unnoticed.
Inputs are integers only: from Python 3.12 on `sum()` over floats is
compensated, so float totals could differ between interpreter versions,
while integer totals cannot.  Float paths are covered by the reference
equality tests instead.
"""

import hashlib

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
    ('certify --k 2 --weight sq', 0, '876ce0cc7187f74a77297f1dadc3b00c4979d2827ea2004612209d3caef5f080'),
    ('certify --k 3 --weight sq', 0, 'c2bf8cce74c0389862fa93caf5eafc1a0382452a92f995a143d71c4b6d399f08'),
    ('certify --k 4 --weight sq', 0, '9075f39e1d2e7af31495759db7d452a833928085fcc95d1c4e907f1b10cf2672'),
    ('certify --k 5 --weight sq', 0, '330e5fa9d6b663d5d138cd783c91813081f4d73bee265a3949a0ce8dac32831e'),
    ('certify --k 6 --weight sq', 0, '2778ab567445fddc454dc9bfa885b5ba38fd696d940fe846a052d58777a69fbe'),
    ('certify --k 7 --weight sq', 0, '5cc19945ec4653d0e7272c1dc822656b4348af46227767d93b260b64497ca987'),
    ('certify --k 8 --weight sq', 0, 'edde7546b3a34844ae610fbfe801923fd81be737ecf4b081c2b978e09cc04047'),
    ('certify --k 9 --weight sq --uncertified', 0, '744812672879b2c7ea95d36854eb9def8c0b6b3c53f230c641ea10f372f3790d'),
    ('certify --full-range --weight sq', 0, 'c83261f28ff0c573cb5c08ac6d370e1d64628049a4e772943283f10b6a32d1d3'),
    ('bench --dist uniform-int --k 2 --weight abs --seed 0 --line-sizes 3,5 --tri-sizes 2,4 --instances 2', 0, 'd068b8b9dab0d762c02afd06c805323b0dbd0f11457312b08adc2a00a01be071'),
    ('bench --dist uniform-int --k 2 --weight abs --seed 1 --line-sizes 3,5 --tri-sizes 2,4 --instances 2', 0, '651d3193ae9bc9e9f43d8f1a0624b770e1fbed74187709d5834ddc74826b7a13'),
    ('bench --dist uniform-int --k 2 --weight sq --seed 0 --line-sizes 3,5 --tri-sizes 2,4 --instances 2', 0, 'd846d7f66a9075c155b52de621b52447c8de2554904417aef3579ed9eee22fef'),
    ('bench --dist uniform-int --k 2 --weight sq --seed 1 --line-sizes 3,5 --tri-sizes 2,4 --instances 2', 0, '629a27440ef61c4e9a9ef9b16d4a5a2e5cc08d3498e2df531c8c1a18d2680dbb'),
    ('bench --dist uniform-int --k 3 --weight abs --seed 0 --line-sizes 2,4 --tri-sizes 2,4 --instances 2', 0, 'abc38567aa07652c8c211c50fefd6375edd5b13028e1672c118d130e8f3a1be2'),
    ('bench --dist uniform-int --k 3 --weight abs --seed 1 --line-sizes 2,4 --tri-sizes 2,4 --instances 2', 0, '1310dca1908f71365093886511e528cf0ed8dd422579229d3ca0658250485c97'),
    ('bench --dist uniform-int --k 3 --weight sq --seed 0 --line-sizes 2,4 --tri-sizes 2,4 --instances 2', 0, '44256892434117fd7ea1b186edc4b26c6ad4f39fde129f8c3108f45e4973b88d'),
    ('bench --dist uniform-int --k 3 --weight sq --seed 1 --line-sizes 2,4 --tri-sizes 2,4 --instances 2', 0, '2c3ceb18b631a8287e360373e021f20ddd4c103c8075f4b1dbc3caeb97ae116c'),
    ('bench --dist uniform-int --k 4 --weight abs --seed 0 --line-sizes 2,3 --tri-sizes 2,4 --instances 2', 0, '6e874a99bd33ca0a45362c71350eb1dc5f1e2ef56f7d2db7ea3ddd231a7a0a27'),
    ('bench --dist uniform-int --k 4 --weight abs --seed 1 --line-sizes 2,3 --tri-sizes 2,4 --instances 2', 0, '4e36242fbfd57a86d50c9fe598df10c063233ab5e635c9b55772b49a0486eb32'),
    ('bench --dist uniform-int --k 4 --weight sq --seed 0 --line-sizes 2,3 --tri-sizes 2,4 --instances 2', 0, '69f25efa2476de8bf91c85f46ece37e8c4db960e07daf20137c3e7ca89f90f5a'),
    ('bench --dist uniform-int --k 4 --weight sq --seed 1 --line-sizes 2,3 --tri-sizes 2,4 --instances 2', 0, '867e572020b4e454a03f8af596f68088bdf44146c88777f0cbeb955b607b771d'),
    ('bench --dist uniform-int --k 3 --weight sq --seed 1 --line-sizes 2,4 --tri-sizes 2,4 --instances 2 --format csv', 0, '1e824d30e173eaf1ba7f20308c8a721e5879a2dcb5c6f1a06bb53bc634a3db33'),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_matches_golden(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest
