from setuptools import Extension, setup


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return []
    return cythonize(
        [
            Extension(
                "partialmetric._scan",
                ["src/partialmetric/_scan.pyx"],
                extra_compile_args=["-O2"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )


setup(ext_modules=extensions())
